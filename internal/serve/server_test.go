package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

var testSigs = []trace.Signal{
	{Name: "en", Width: 1},
	{Name: "op", Width: 2},
}

// genNDJSON renders one synthetic trace as an upload body. The power
// level tracks the control state so the model has distinct power states
// to find, and withPower=false drops the p field (estimate uploads).
func genNDJSON(t *testing.T, seed int64, n int, withPower bool) *bytes.Buffer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteHeader(HeaderForTest()); err != nil {
		t.Fatal(err)
	}
	// The no-power path bypasses the encoder below, so the header must
	// land in the buffer first.
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	en, op := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.2 {
			en = uint64(rng.Intn(2))
		}
		if rng.Float64() < 0.3 {
			op = uint64(rng.Intn(4))
		}
		row := []logic.Vector{logic.FromUint64(1, en), logic.FromUint64(2, op)}
		p := 1.0 + 2.5*float64(en) + 0.01*rng.NormFloat64()
		if withPower {
			if err := enc.WriteRow(row, p); err != nil {
				t.Fatal(err)
			}
		} else {
			rec := struct {
				V []string `json:"v"`
			}{V: []string{row[0].Hex(), row[1].Hex()}}
			b, _ := json.Marshal(rec)
			buf2 := append(b, '\n')
			if _, err := buf.Write(buf2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// HeaderForTest builds the upload header for the test schema.
func HeaderForTest() stream.Header {
	return stream.HeaderFor(testSigs, []int{1})
}

func newTestServer() *Server {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	return New(cfg)
}

func mustPost(t *testing.T, url string, body io.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEndToEnd walks the full serving loop over HTTP: concurrent trace
// uploads, verified model export in both formats, power estimation with
// MRE, and the metrics document.
func TestEndToEnd(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No model before any trace completes.
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("model before ingest: status %d, want 404 (%s)", resp.StatusCode, readAll(t, resp))
	}
	readAll(t, resp)

	// Concurrent uploads: every session is independent.
	const nTraces = 3
	lens := []int{80, 120, 60}
	var wg sync.WaitGroup
	records := 0
	for i := 0; i < nTraces; i++ {
		records += lens[i]
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := mustPost(t, ts.URL+"/v1/traces", genNDJSON(t, int64(i), lens[i], true))
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("upload %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var res struct {
				Trace   int `json:"trace"`
				Records int `json:"records"`
			}
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Errorf("upload %d: %v", i, err)
			}
			if res.Records != lens[i] {
				t.Errorf("upload %d: %d records acknowledged, want %d", i, res.Records, lens[i])
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// JSON export parses under the psmlint document schema and verifies.
	resp, err = http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model export: status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		States      []json.RawMessage `json:"states"`
		Transitions []json.RawMessage `json:"transitions"`
		Initials    map[string]int    `json:"initials"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("served JSON does not parse as a model export: %v", err)
	}
	if len(doc.States) == 0 || len(doc.Initials) == 0 {
		t.Fatal("served model is empty")
	}

	// DOT export.
	resp, err = http.Get(ts.URL + "/v1/model?format=dot")
	if err != nil {
		t.Fatal(err)
	}
	if dot := readAll(t, resp); !strings.HasPrefix(dot, "digraph") {
		t.Fatalf("DOT export does not look like graphviz: %.60s", dot)
	}

	resp, err = http.Get(ts.URL + "/v1/model?format=yaml")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", resp.StatusCode)
	}

	// Estimate with reference powers: MRE reported and small on the
	// training distribution.
	resp = mustPost(t, ts.URL+"/v1/estimate", genNDJSON(t, 0, 80, true))
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate: status %d: %s", resp.StatusCode, body)
	}
	var est struct {
		Instants  int       `json:"instants"`
		MeanPower float64   `json:"mean_power"`
		Estimates []float64 `json:"estimates"`
		MRE       *float64  `json:"mre"`
	}
	if err := json.Unmarshal([]byte(body), &est); err != nil {
		t.Fatal(err)
	}
	if est.Instants != 80 || len(est.Estimates) != 80 {
		t.Fatalf("estimate covered %d instants (%d estimates), want 80", est.Instants, len(est.Estimates))
	}
	if est.MRE == nil {
		t.Fatal("upload carried reference powers but no MRE came back")
	}
	if *est.MRE < 0 || *est.MRE > 0.5 {
		t.Fatalf("MRE %v implausible for in-distribution replay", *est.MRE)
	}

	// Estimate without powers: no MRE.
	resp = mustPost(t, ts.URL+"/v1/estimate", genNDJSON(t, 1, 40, false))
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate without refs: status %d: %s", resp.StatusCode, body)
	}
	est.MRE = nil
	if err := json.Unmarshal([]byte(body), &est); err != nil {
		t.Fatal(err)
	}
	if est.MRE != nil {
		t.Fatal("MRE reported without reference powers")
	}

	// Metrics: the psmd section carries the ingestion counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	var mdoc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &mdoc); err != nil {
		t.Fatalf("metrics is not a JSON object: %v\n%s", err, body)
	}
	var psmd struct {
		RecordsIngested int64 `json:"records_ingested"`
		OpenSessions    int   `json:"open_sessions"`
		TracesCompleted int   `json:"traces_completed"`
		Snapshots       int   `json:"snapshots"`
		JoinLatencyMs   []struct {
			LE    string `json:"le"`
			Count int    `json:"count"`
		} `json:"join_latency_ms"`
	}
	if err := json.Unmarshal(mdoc["psmd"], &psmd); err != nil {
		t.Fatalf("metrics lacks a psmd section: %v", err)
	}
	if psmd.RecordsIngested != int64(records) {
		t.Fatalf("metrics report %d records, want %d", psmd.RecordsIngested, records)
	}
	if psmd.OpenSessions != 0 || psmd.TracesCompleted != nTraces {
		t.Fatalf("metrics report %d open / %d completed, want 0 / %d",
			psmd.OpenSessions, psmd.TracesCompleted, nTraces)
	}
	if psmd.Snapshots == 0 {
		t.Fatal("metrics report no snapshots after model exports")
	}
	samples := 0
	for _, b := range psmd.JoinLatencyMs {
		samples += b.Count
	}
	// Every Snapshot call lands one latency sample, including failed
	// attempts (e.g. a model request before any trace completed), so the
	// histogram holds at least one sample per successful snapshot.
	if samples < psmd.Snapshots {
		t.Fatalf("latency histogram holds %d samples for %d snapshots", samples, psmd.Snapshots)
	}
	if _, ok := mdoc["memstats"]; !ok {
		t.Fatal("metrics lacks the process-global expvar sections")
	}

	// pprof index responds.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

// TestIngestErrors exercises the upload failure paths: every one must
// abort its session and leave the engine clean.
func TestIngestErrors(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		code int
	}{
		{"empty", "", http.StatusBadRequest},
		{"bad header", "{not json\n", http.StatusBadRequest},
		{"no signals", `{"signals":[]}` + "\n", http.StatusBadRequest},
		{"missing power", `{"signals":[{"name":"en","width":1},{"name":"op","width":2}],"inputs":["op"]}` + "\n" +
			`{"v":["1","2"]}` + "\n", http.StatusBadRequest},
		{"bad hex", `{"signals":[{"name":"en","width":1},{"name":"op","width":2}],"inputs":["op"]}` + "\n" +
			`{"v":["1","zz"],"p":1.0}` + "\n", http.StatusBadRequest},
		{"arity", `{"signals":[{"name":"en","width":1},{"name":"op","width":2}],"inputs":["op"]}` + "\n" +
			`{"v":["1"],"p":1.0}` + "\n", http.StatusBadRequest},
		{"empty trace", `{"signals":[{"name":"en","width":1},{"name":"op","width":2}],"inputs":["op"]}` + "\n",
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := mustPost(t, ts.URL+"/v1/traces", strings.NewReader(tc.body))
		body := readAll(t, resp)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, body)
		}
	}

	// Method checks.
	resp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/traces: status %d, want 405", resp.StatusCode)
	}
	resp = mustPost(t, ts.URL+"/v1/model", strings.NewReader(""))
	if readAll(t, resp); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/model: status %d, want 405", resp.StatusCode)
	}

	if m := srv.Engine().Metrics(); m.OpenSessions != 0 || m.TracesCompleted != 0 {
		t.Fatalf("failed uploads leaked state: %+v", m)
	}
}

// TestDisconnectAbortsSession drops the connection mid-upload and checks
// the session aborts without touching the model.
func TestDisconnectAbortsSession(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A good trace first, so the model exists.
	resp := mustPost(t, ts.URL+"/v1/traces", genNDJSON(t, 42, 100, true))
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	before := readAll(t, func() *http.Response {
		r, err := http.Get(ts.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}())

	// Now a partial upload whose body errors mid-stream.
	pr, pw := io.Pipe()
	go func() {
		full := genNDJSON(t, 43, 100, true).Bytes()
		pw.Write(full[:len(full)/2])
		pw.CloseWithError(fmt.Errorf("connection dropped"))
	}()
	resp, err := http.Post(ts.URL+"/v1/traces", "application/x-ndjson", pr)
	if err == nil {
		// Some transports surface the broken body as a 400 response
		// instead of a client-side error; either way the session must die.
		readAll(t, resp)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := srv.Engine().Metrics()
		if m.OpenSessions == 0 {
			if m.TracesCompleted != 1 {
				t.Fatalf("aborted upload completed a trace: %+v", m)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session still open after disconnect: %+v", m)
		}
		time.Sleep(10 * time.Millisecond)
	}

	after := readAll(t, func() *http.Response {
		r, err := http.Get(ts.URL + "/v1/model")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}())
	if before != after {
		t.Fatal("aborted upload changed the served model")
	}
}

// TestGracefulShutdown starts a real http.Server, keeps an upload open
// across the Shutdown call, and checks the drain: the in-flight session
// completes with a 200 while new connections are refused.
func TestGracefulShutdown(t *testing.T) {
	srv := newTestServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	pr, pw := io.Pipe()
	type postResult struct {
		code int
		body string
		err  error
	}
	done := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(base+"/v1/traces", "application/x-ndjson", pr)
		if err != nil {
			done <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- postResult{code: resp.StatusCode, body: string(b)}
	}()

	// Stream the first half, then shut down with the session open.
	full := genNDJSON(t, 7, 100, true).Bytes()
	half := bytes.LastIndexByte(full[:len(full)/2], '\n') + 1
	if _, err := pw.Write(full[:half]); err != nil {
		t.Fatal(err)
	}
	for srv.Engine().Metrics().OpenSessions == 0 { // wait for the server to see it
		time.Sleep(5 * time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownDone <- hs.Shutdown(ctx) }()

	// Finish the upload while the server drains.
	time.Sleep(50 * time.Millisecond)
	if _, err := pw.Write(full[half:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight upload failed during drain: %v", res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("in-flight upload: status %d during drain: %s", res.code, res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	m := srv.Engine().Metrics()
	if m.TracesCompleted != 1 || m.OpenSessions != 0 {
		t.Fatalf("drain did not complete the session: %+v", m)
	}
}
