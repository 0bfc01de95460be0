// Package obs is the unified observability layer of the flow: spans,
// metrics and the merge-provenance audit log, plumbed through context so
// every stage of the pipeline — batch or streaming — reports into the
// same sinks without knowing who is listening.
//
// Three independent instruments share one design rule, the nil fast
// path: a context that carries no Tracer/Registry/ProvenanceLog yields
// nil handles, and every method on a nil handle is a no-op. Hot loops
// therefore instrument unconditionally and pay nothing when
// observability is off (make bench-obs pins the overhead), and the
// instrumented code never branches on "is obs enabled".
//
//   - Tracer (trace.go): nestable timed spans with key/value attrs,
//     exported as NDJSON events plus an aggregated per-run summary tree.
//   - Registry (metrics.go): named counters, gauges and histograms with
//     point-in-time snapshots, Prometheus text and expvar-style JSON
//     export. This package is the module's only expvar importer.
//   - ProvenanceLog (provenance.go): one record per mergeability
//     decision (Section IV-A), canonically ordered so parallel and
//     sequential runs over the same traces produce identical logs.
package obs

import "context"

type tracerKey struct{}
type registryKey struct{}
type provenanceKey struct{}

// WithTracer returns a context whose spans report to t.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, or nil when tracing is off.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// WithRegistry returns a context whose metrics report to r.
func WithRegistry(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, registryKey{}, r)
}

// RegistryFrom returns the context's metrics registry, or nil when
// metrics are off. A nil registry hands out nil instruments, whose
// methods no-op — callers never need to check.
func RegistryFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryKey{}).(*Registry)
	return r
}

// WithProvenance returns a context whose merge decisions are recorded
// into l.
func WithProvenance(ctx context.Context, l *ProvenanceLog) context.Context {
	return context.WithValue(ctx, provenanceKey{}, l)
}

// ProvenanceFrom returns the context's provenance log, or nil when the
// audit trail is off.
func ProvenanceFrom(ctx context.Context) *ProvenanceLog {
	l, _ := ctx.Value(provenanceKey{}).(*ProvenanceLog)
	return l
}
