package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"psmkit/internal/obs"
)

// TestStatusAfterTraffic drives uploads and a model read, then checks
// the /v1/status document at one shard and at 2: readiness, sane
// quantiles, engine watermarks, one row per shard, slow-session
// attribution, and SLO burn arithmetic.
func TestStatusAfterTraffic(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testStatusAfterTraffic(t, shards) })
	}
}

func testStatusAfterTraffic(t *testing.T, shards int) {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	cfg.Shards = shards
	cfg.SLO = SLOConfig{IngestP99Ms: 60_000, ErrorRate: 0.5} // generous: traffic is healthy
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := mustPost(t, ts.URL+"/v1/traces", genNDJSON(t, int64(300+i), 200, true))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, readAll(t, resp))
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/v1/model"); err == nil {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc statusDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("status JSON invalid: %v\n%s", err, body)
	}
	if !doc.Ready || !doc.ModelAvailable || !doc.SLOOK {
		t.Fatalf("unhealthy status after healthy traffic: %s", body)
	}
	if doc.Ingest.Count != 2 || doc.Ingest.WindowSeconds <= 0 {
		t.Fatalf("ingest window = %+v, want 2 observations", doc.Ingest)
	}
	if doc.Ingest.P50Ms > doc.Ingest.P95Ms || doc.Ingest.P95Ms > doc.Ingest.P99Ms {
		t.Fatalf("quantiles not monotone: %+v", doc.Ingest)
	}
	if doc.Join.Count == 0 {
		t.Fatalf("join window empty after a snapshot: %+v", doc.Join)
	}
	if doc.Engine.TracesCompleted != 2 || doc.Engine.RecordsIngested != 400 || doc.Engine.Snapshots == 0 {
		t.Fatalf("engine watermarks wrong: %+v", doc.Engine)
	}
	if doc.Errors.Requests != 3 || doc.Errors.Errors != 0 || doc.Errors.Burn != 0 {
		t.Fatalf("error accounting: %+v, want 3 requests (2 uploads + model), 0 errors", doc.Errors)
	}
	if len(doc.Shards) != shards {
		t.Fatalf("status carries %d shard rows, want %d", len(doc.Shards), shards)
	}
	if len(doc.SlowSessions) != 2 {
		t.Fatalf("slow-session table holds %d rows, want 2", len(doc.SlowSessions))
	}
	// Scan and join run on the handler, parse and reduce on the shard
	// worker meanwhile: each pair fits in the session's wall time, the
	// sum of all four need not.
	for _, tl := range doc.SlowSessions {
		if tl.Records != 200 || tl.Trace < 0 || tl.TotalNS <= 0 ||
			tl.ScanNS+tl.JoinNS > tl.TotalNS || tl.ParseNS+tl.ReduceNS > tl.TotalNS ||
			tl.ParseNS <= 0 || tl.ReduceNS <= 0 {
			t.Fatalf("implausible timeline: %+v", tl)
		}
	}
	if doc.Flight.Recorded == 0 || doc.Flight.Capacity != obs.DefaultFlightEntries {
		t.Fatalf("flight fill state: %+v", doc.Flight)
	}

	// The status surface itself is not a /v1/ request for SLO purposes:
	// probing must not inflate the request counters.
	resp2, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var doc2 statusDoc
	if err := json.Unmarshal([]byte(readAll(t, resp2)), &doc2); err != nil {
		t.Fatal(err)
	}
	if doc2.Errors.Requests != doc.Errors.Requests {
		t.Fatalf("status probe counted as traffic: %d -> %d requests", doc.Errors.Requests, doc2.Errors.Requests)
	}
}

// TestStatusErrorBurn drives 5xx responses and checks the windowed
// error-rate burn trips the SLO verdict.
func TestStatusErrorBurn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	cfg.SLO = SLOConfig{ErrorRate: 0.01}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// GET /v1/model with no completed traces is 404 — a client error,
	// not a burn.
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("empty model: status %d, want 404", resp.StatusCode)
	}
	var doc statusDoc
	resp, err = http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Errors.Requests != 1 || doc.Errors.Errors != 0 || !doc.SLOOK {
		t.Fatalf("4xx counted as burn: %+v", doc.Errors)
	}
}

// TestFlightHammer is the race hammer of the acceptance criteria:
// concurrent upload sessions drive the engine while readers pound
// /debug/flight and /v1/status hard enough that the (tiny) flight ring
// wraps many times. Every dump must stay parseable and Seq-ordered and
// every status document must stay valid JSON — under -race this pins
// the recorder's and the SLO middleware's synchronization.
func TestFlightHammer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	cfg.Flight = obs.NewFlight(16) // tiny ring: guaranteed wraparound under load
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const uploaders, readers, rounds = 4, 4, 8
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/v1/traces", "application/x-ndjson",
					genNDJSON(t, int64(2000+u*rounds+r), 150, true))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				// A model read per round makes the engine emit snapshot
				// spans into the ring alongside the ingest spans.
				if mresp, err := http.Get(ts.URL + "/v1/model"); err == nil {
					mresp.Body.Close()
				}
			}
		}(u)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				if g%2 == 0 {
					resp, err := http.Get(ts.URL + "/debug/flight")
					if err != nil {
						t.Error(err)
						return
					}
					body := readAll(t, resp)
					entries, err := obs.ReadFlight(strings.NewReader(body))
					if err != nil {
						t.Errorf("mid-wrap dump unparseable: %v", err)
						return
					}
					for i := 1; i < len(entries); i++ {
						if entries[i].Seq <= entries[i-1].Seq {
							t.Errorf("dump not Seq-ordered at %d", i)
							return
						}
					}
				} else {
					resp, err := http.Get(ts.URL + "/v1/status")
					if err != nil {
						t.Error(err)
						return
					}
					var doc statusDoc
					if err := json.Unmarshal([]byte(readAll(t, resp)), &doc); err != nil {
						t.Errorf("status JSON invalid mid-hammer: %v", err)
						return
					}
					if !doc.Ready {
						t.Error("status lost readiness mid-hammer")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if got := srv.Flight().Dropped(); got == 0 {
		t.Fatal("hammer never wrapped the 64-entry ring; the test lost its point")
	}
	var doc statusDoc
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(readAll(t, resp)), &doc); err != nil {
		t.Fatal(err)
	}
	// Each uploader round is one upload plus one model read.
	if doc.Errors.Requests != uploaders*rounds*2 || doc.Errors.Errors != 0 {
		t.Fatalf("final SLO counters: %+v, want %d requests / 0 errors", doc.Errors, uploaders*rounds*2)
	}
	if doc.Engine.TracesCompleted != uploaders*rounds {
		t.Fatalf("traces completed = %d, want %d", doc.Engine.TracesCompleted, uploaders*rounds)
	}
}

// TestFlightDumpByteStable pins determinism: once the daemon quiesces,
// consecutive GET /debug/flight dumps are byte-identical.
func TestFlightDumpByteStable(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := mustPost(t, ts.URL+"/v1/traces", genNDJSON(t, 77, 200, true))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s", readAll(t, resp))
	}
	resp.Body.Close()
	if mresp, err := http.Get(ts.URL + "/v1/model"); err == nil {
		mresp.Body.Close()
	}

	fetch := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/debug/flight")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("content type %q", ct)
		}
		return []byte(readAll(t, resp))
	}
	a, b := fetch(), fetch()
	if len(a) == 0 {
		t.Fatal("flight dump empty after traffic")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("quiesced dumps differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if _, err := obs.ReadFlight(bytes.NewReader(a)); err != nil {
		t.Fatalf("dump unparseable: %v", err)
	}
}

// TestInternalTracerKeepsNoRecords pins the memory of a server built
// without cfg.Tracer: its internal tracer retains no span records —
// nothing reads a summary from it — while the flight recorder and the
// span window still see every span.
func TestInternalTracerKeepsNoRecords(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp := mustPost(t, ts.URL+"/v1/traces", genNDJSON(t, int64(900+i), 100, true))
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, body)
		}
	}
	readAll(t, mustGet(t, ts.URL+"/v1/model"))

	if n := srv.tracer.Summary().Count; n != 0 {
		t.Fatalf("internal tracer retained %d span records", n)
	}
	spans := 0
	for _, e := range srv.flight.Snapshot() {
		if e.Kind == "span" {
			spans++
		}
	}
	window := srv.co.Registry().Window("psmd_span_ms_window", nil, 0, 0).Snapshot().Count
	// Three ingest spans, then the model read's snapshot, export_chains
	// and collapse spans at least.
	if spans < 6 || window != int64(spans) {
		t.Fatalf("flight saw %d spans, span window %d; want the same count, at least 6", spans, window)
	}
}
