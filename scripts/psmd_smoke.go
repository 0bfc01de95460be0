// Command psmd_smoke is the `make psmd-smoke` gate: it exercises the real
// psmd and tracegen binaries end to end over HTTP, once with the default
// single shard and once with -shards=4 — boot the daemon on an ephemeral
// port, stream a generated RAM trace in, require the ack to name a
// shard, GET /v1/model to serve a verified model with an ETag that a
// conditional read answers with 304, GET /metrics to report
// the ingested record count fleet-wide (the Prometheus exposition
// included) plus one row per shard, GET /v1/status to carry the same
// shard rows, a second upload to make a new model generation (new ETag,
// new body), and shut the daemon down gracefully via SIGTERM.
//
// It exits 0 on success and 1 with a diagnostic on any failure, so it
// slots into `make ci` next to the test and lint gates.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

const traceInstants = 3000

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "psmd-smoke:", err)
		os.Exit(1)
	}
	fmt.Println("psmd-smoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "psmd-smoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// Build the real binaries the flow documents.
	psmd := filepath.Join(tmp, "psmd")
	tracegen := filepath.Join(tmp, "tracegen")
	for bin, pkg := range map[string]string{psmd: "./cmd/psmd", tracegen: "./cmd/tracegen"} {
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			return fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	for _, shards := range []int{1, 4} {
		if err := smoke(psmd, tracegen, shards); err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
	}
	return nil
}

// smoke drives one daemon; shards = 1 boots it without -shards, the
// default.
func smoke(psmd, tracegen string, shards int) error {
	// Boot the daemon on an ephemeral port and learn the address from its
	// startup log.
	args := []string{"-addr", "127.0.0.1:0", "-inputs", "en,we,addr,wdata"}
	if shards > 1 {
		args = append(args, "-shards", fmt.Sprint(shards))
	}
	daemon := exec.Command(psmd, args...)
	stderr, err := daemon.StderrPipe()
	if err != nil {
		return err
	}
	if err := daemon.Start(); err != nil {
		return err
	}
	defer daemon.Process.Kill() // no-op after the graceful exit below

	// psmd logs structured NDJSON events; the "serving" event carries
	// the bound address as an attribute.
	logs := bufio.NewScanner(stderr)
	addrRe := regexp.MustCompile(`"msg":"serving".*"addr":"([^"]+)"`)
	addrc := make(chan string, 1)
	go func() {
		for logs.Scan() {
			if m := addrRe.FindStringSubmatch(logs.Text()); m != nil {
				addrc <- m[1]
				break
			}
		}
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon did not report its address")
	}

	body, err := uploadTrace(base, tracegen, 1)
	if err != nil {
		return err
	}
	var ack struct {
		Records int  `json:"records"`
		Shard   *int `json:"shard"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.Records != traceInstants {
		return fmt.Errorf("ingest acknowledged %d records, want %d (%v)", ack.Records, traceInstants, err)
	}
	// The ack names the shard that owned the session.
	if ack.Shard == nil || *ack.Shard < 0 || *ack.Shard >= shards {
		return fmt.Errorf("ingest ack missing a valid shard index: %s", body)
	}

	// The model endpoint runs the psmlint rule set before serving; a 200
	// therefore certifies the streamed model verified clean. The body of
	// a generation carries its ETag, and a conditional read naming that
	// tag is a 304 with no body.
	code, etag, model, err := getModel(base, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET /v1/model: status %d (model failed verification?): %s", code, model)
	}
	if !strings.Contains(string(model), `"states"`) {
		return fmt.Errorf("GET /v1/model: no states in export: %.120s", model)
	}
	if etag == "" {
		return fmt.Errorf("GET /v1/model: no ETag")
	}
	if code, tag, b, err := getModel(base, etag); err != nil || code != http.StatusNotModified || len(b) != 0 || tag != etag {
		return fmt.Errorf("GET /v1/model with If-None-Match %s: status %d, ETag %q, %d body bytes, %v; want 304 with no body",
			etag, code, tag, len(b), err)
	}

	// Metrics must account for every ingested record.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var mdoc struct {
		PSMD struct {
			RecordsIngested int64 `json:"records_ingested"`
			TracesCompleted int   `json:"traces_completed"`
			OpenSessions    int   `json:"open_sessions"`
			Shards          []struct {
				Shard           int   `json:"shard"`
				RecordsIngested int64 `json:"records_ingested"`
				TracesCompleted int   `json:"traces_completed"`
				QueueCap        int   `json:"queue_cap"`
				Shed            int64 `json:"shed_total"`
			} `json:"shards"`
		} `json:"psmd"`
	}
	if err := json.Unmarshal(body, &mdoc); err != nil {
		return fmt.Errorf("GET /metrics: %v\n%s", err, body)
	}
	if mdoc.PSMD.RecordsIngested != traceInstants || mdoc.PSMD.TracesCompleted != 1 || mdoc.PSMD.OpenSessions != 0 {
		return fmt.Errorf("metrics report %+v, want %d records / 1 trace / 0 open", mdoc.PSMD, traceInstants)
	}
	// One metrics row per shard, indices in order, bounded queues live,
	// nothing shed, and the per-shard counters summing to the fleet view.
	if len(mdoc.PSMD.Shards) != shards {
		return fmt.Errorf("metrics carry %d shard rows, want %d: %s", len(mdoc.PSMD.Shards), shards, body)
	}
	var shardRecords int64
	var shardTraces int
	for i, row := range mdoc.PSMD.Shards {
		if row.Shard != i {
			return fmt.Errorf("shard row %d reports index %d: %s", i, row.Shard, body)
		}
		if row.QueueCap <= 0 {
			return fmt.Errorf("shard %d reports no bounded queue: %s", i, body)
		}
		if row.Shed != 0 {
			return fmt.Errorf("shard %d shed %d batches during the smoke", i, row.Shed)
		}
		shardRecords += row.RecordsIngested
		shardTraces += row.TracesCompleted
	}
	if shardRecords != traceInstants || shardTraces != 1 {
		return fmt.Errorf("shard rows sum to %d records / %d traces, want %d / 1", shardRecords, shardTraces, traceInstants)
	}
	if mdoc.PSMD.Shards[*ack.Shard].RecordsIngested != traceInstants {
		return fmt.Errorf("shard %d owned the session but reports %d records",
			*ack.Shard, mdoc.PSMD.Shards[*ack.Shard].RecordsIngested)
	}

	// The Prometheus exposition carries the same fleet counters.
	resp, err = http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("psmd_records_ingested_total %d\n", traceInstants),
		"psmd_traces_completed_total 1\n",
		"psmd_sessions_open 0\n",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("GET /metrics?format=prometheus lacks %q", want)
		}
	}

	// The health surface must report ready with sane windowed quantiles
	// and one row per shard after the traffic above.
	resp, err = http.Get(base + "/v1/status")
	if err != nil {
		return err
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/status: status %d: %s", resp.StatusCode, body)
	}
	var sdoc struct {
		Ready          bool `json:"ready"`
		ModelAvailable bool `json:"model_available"`
		Ingest         struct {
			Count int64   `json:"count"`
			P50Ms float64 `json:"p50_ms"`
			P95Ms float64 `json:"p95_ms"`
			P99Ms float64 `json:"p99_ms"`
		} `json:"ingest"`
		Errors struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"errors"`
		Shards []struct{} `json:"shards"`
	}
	if err := json.Unmarshal(body, &sdoc); err != nil {
		return fmt.Errorf("GET /v1/status: %v\n%s", err, body)
	}
	if !sdoc.Ready || !sdoc.ModelAvailable {
		return fmt.Errorf("status not healthy after traffic: %s", body)
	}
	if sdoc.Ingest.Count == 0 || sdoc.Ingest.P99Ms <= 0 ||
		sdoc.Ingest.P50Ms > sdoc.Ingest.P95Ms || sdoc.Ingest.P95Ms > sdoc.Ingest.P99Ms {
		return fmt.Errorf("ingest quantiles implausible: %s", body)
	}
	if sdoc.Errors.Requests == 0 || sdoc.Errors.Errors != 0 {
		return fmt.Errorf("SLO error accounting implausible: %s", body)
	}
	if len(sdoc.Shards) != shards {
		return fmt.Errorf("status carries %d shard rows, want %d: %s", len(sdoc.Shards), shards, body)
	}

	// The flight recorder must have captured the session: a post-traffic
	// dump is non-empty NDJSON with span events in sequence order.
	resp, err = http.Get(base + "/debug/flight")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return fmt.Errorf("GET /debug/flight: status %d", resp.StatusCode)
	}
	var (
		flightLines int
		flightSpans int
		lastSeq     uint64
	)
	fl := bufio.NewScanner(resp.Body)
	fl.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for fl.Scan() {
		line := strings.TrimSpace(fl.Text())
		if line == "" {
			continue
		}
		var ev struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			resp.Body.Close()
			return fmt.Errorf("GET /debug/flight: unparseable line: %v: %.120s", err, line)
		}
		if ev.Seq <= lastSeq || ev.Name == "" || (ev.Kind != "span" && ev.Kind != "log") {
			resp.Body.Close()
			return fmt.Errorf("GET /debug/flight: malformed event: %.120s", line)
		}
		lastSeq = ev.Seq
		flightLines++
		if ev.Kind == "span" {
			flightSpans++
		}
	}
	resp.Body.Close()
	if err := fl.Err(); err != nil {
		return fmt.Errorf("GET /debug/flight: %v", err)
	}
	if flightLines == 0 || flightSpans == 0 {
		return fmt.Errorf("flight dump empty after traffic (%d lines, %d spans)", flightLines, flightSpans)
	}

	// Another session makes a new generation: once its ack is in, the
	// next read (even one naming the old tag) is a 200 with a new tag and
	// a new body.
	if _, err := uploadTrace(base, tracegen, 2); err != nil {
		return err
	}
	code, tag, next, err := getModel(base, etag)
	if err != nil {
		return err
	}
	if code != http.StatusOK || tag == "" || tag == etag || string(next) == string(model) {
		return fmt.Errorf("GET /v1/model after a second upload: status %d, ETag %q (was %q), body changed %v; want 200 with a new tag and body",
			code, tag, etag, string(next) != string(model))
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon did not exit after SIGTERM")
	}
	return nil
}

// uploadTrace streams a generated RAM trace straight from tracegen's
// stdout into the ingest endpoint — the documented pipe, without the
// shell — and returns the ack.
func uploadTrace(base, tracegen string, seed int) ([]byte, error) {
	gen := exec.Command(tracegen, "-ip", "RAM", "-n", fmt.Sprint(traceInstants), "-seed", fmt.Sprint(seed), "-stream")
	stdout, err := gen.StdoutPipe()
	if err != nil {
		return nil, err
	}
	gen.Stderr = os.Stderr
	if err := gen.Start(); err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/traces", "application/x-ndjson", stdout)
	if err != nil {
		return nil, fmt.Errorf("POST /v1/traces: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := gen.Wait(); err != nil {
		return nil, fmt.Errorf("tracegen: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/traces: status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// getModel reads GET /v1/model, sending If-None-Match when inm is set,
// and returns the status, the ETag and the body.
func getModel(base, inm string) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/v1/model", nil)
	if err != nil {
		return 0, "", nil, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("ETag"), body, err
}
