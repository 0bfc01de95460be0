package obs

import (
	"context"
	"flag"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// CLI wires the standard observability flags of the command-line tools
// — -trace, -metrics, -provenance, -cpuprofile, -memprofile — into one
// lifecycle: BindFlags registers the flags, Start opens the selected
// sinks and returns the instrumented context, Finish flushes them after
// the work (error path included, so an aborted run still leaves usable
// profiles). An empty path leaves its sink off: the context then
// carries nothing for it and the nil fast paths engage. A nil *CLI is
// fully inert — library callers of run() pass nil and pay nothing.
type CLI struct {
	TracePath      string
	MetricsPath    string
	ProvenancePath string
	CPUProfilePath string
	MemProfilePath string

	tracer    *Tracer
	reg       *Registry
	prov      *ProvenanceLog
	traceFile *os.File
	cpuFile   *os.File
}

// BindFlags registers the observability flags on fs. withProvenance
// includes -provenance (only meaningful for tools that run the merge
// phases).
func (c *CLI) BindFlags(fs *flag.FlagSet, withProvenance bool) {
	fs.StringVar(&c.TracePath, "trace", "", "write NDJSON span events to this file and print the stage summary to stderr")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write the run's metrics (Prometheus text) to this file")
	if withProvenance {
		fs.StringVar(&c.ProvenancePath, "provenance", "", "write the merge-provenance audit log (NDJSON) to this file")
	}
	fs.StringVar(&c.CPUProfilePath, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfilePath, "memprofile", "", "write a heap profile to this file")
}

// Start opens the configured sinks and returns ctx instrumented with
// them.
func (c *CLI) Start(ctx context.Context) (context.Context, error) {
	if c == nil {
		return ctx, nil
	}
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return nil, err
		}
		c.traceFile = f
		c.tracer = NewTracer(f)
		ctx = WithTracer(ctx, c.tracer)
	}
	if c.MetricsPath != "" {
		c.reg = NewRegistry()
		ctx = WithRegistry(ctx, c.reg)
	}
	if c.ProvenancePath != "" {
		c.prov = NewProvenanceLog()
		ctx = WithProvenance(ctx, c.prov)
	}
	if c.CPUProfilePath != "" {
		f, err := os.Create(c.CPUProfilePath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			//psmlint:ignore err-drop the profile failed to start; its close error is secondary
			f.Close()
			return nil, err
		}
		c.cpuFile = f
	}
	return ctx, nil
}

// Finish flushes every sink: stops the CPU profile, writes the heap
// profile, the metrics text, the provenance NDJSON, and — when tracing
// — the span summary tree to summary. It returns the first flush error.
func (c *CLI) Finish(summary io.Writer) error {
	if c == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(c.cpuFile.Close())
		c.cpuFile = nil
	}
	if c.MemProfilePath != "" {
		runtime.GC() // settle the live set the heap profile reports
		keep(writeFileWith(c.MemProfilePath, pprof.WriteHeapProfile))
	}
	if c.reg != nil {
		keep(writeFileWith(c.MetricsPath, c.reg.WritePrometheus))
	}
	if c.prov != nil {
		keep(writeFileWith(c.ProvenancePath, func(w io.Writer) error {
			return WriteDecisions(w, c.prov.Decisions())
		}))
	}
	if c.tracer != nil {
		if summary != nil {
			keep(c.tracer.WriteSummary(summary))
		}
		keep(c.tracer.Err())
	}
	if c.traceFile != nil {
		keep(c.traceFile.Close())
		c.traceFile = nil
	}
	return first
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		//psmlint:ignore err-drop the write error is primary; close cannot improve on it
		f.Close()
		return err
	}
	return f.Close()
}
