package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"psmkit/internal/shard"
	"psmkit/internal/stream"
)

func newShardedTestServer(shards int) *Server {
	cfg := DefaultConfig()
	cfg.Stream.Inputs = []string{"op"}
	cfg.Shards = shards
	return New(cfg)
}

// shardedIngestResult mirrors ingestResult for response decoding.
type shardedIngestResult struct {
	Trace   int  `json:"trace"`
	Records int  `json:"records"`
	Shard   *int `json:"shard"`
}

// TestAdmission429RetryAfter pins the admission contract on one engine
// and on 2 shards: when an engine's open-session cap rejects an upload,
// the 429 carries the configured Retry-After hint so a well-behaved
// client backs off instead of hammering the cap. On 2 shards the cap is
// per shard, so the rejected upload's session id routes to the shard
// that holds the open session.
func TestAdmission429RetryAfter(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := DefaultConfig()
		cfg.Stream.Inputs = []string{"op"}
		cfg.Stream.MaxOpenSessions = 1
		cfg.RetryAfter = 3 * time.Second
		cfg.Shards = shards
		srv := New(cfg)
		ts := httptest.NewServer(srv.Handler())

		rejected := "second"
		if co := srv.Coordinator(); co != nil {
			for i := 0; co.ShardOf(rejected) != co.ShardOf("held"); i++ {
				rejected = fmt.Sprintf("second-%d", i)
			}
		}

		// Hold one session open: stream the header and wait for the
		// server to register it.
		pr, pw := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := http.Post(ts.URL+"/v1/traces?session=held", "application/x-ndjson", pr)
			if err == nil {
				readAll(t, resp)
			}
		}()
		full := genNDJSON(t, 11, 50, true).Bytes()
		if _, err := pw.Write(full); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for srv.Metrics().OpenSessions == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("shards=%d: server never opened the held session", shards)
			}
			time.Sleep(5 * time.Millisecond)
		}

		// A second upload must be shed with 429 + Retry-After.
		resp := mustPost(t, ts.URL+"/v1/traces?session="+rejected, genNDJSON(t, 12, 10, true))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("shards=%d: over-cap upload: status %d, want 429 (%s)", shards, resp.StatusCode, body)
		}
		if got := resp.Header.Get("Retry-After"); got != "3" {
			t.Fatalf("shards=%d: Retry-After = %q, want \"3\"", shards, got)
		}
		if !strings.Contains(body, "sessions already open") {
			t.Fatalf("shards=%d: unexpected rejection body: %s", shards, body)
		}

		pw.Close()
		<-done
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestErrorMapping pins the error→status mapping of the ingest
// path without needing to reproduce real saturation: a shard load-shed
// maps to 429 with the shed's own enqueue timeout as the Retry-After
// (rounded up to whole seconds), everything else to 400.
func TestIngestErrorMapping(t *testing.T) {
	srv := newTestServer()

	rec := httptest.NewRecorder()
	srv.ingestError(rec, &shard.SaturatedError{Shard: 2, RetryAfter: 1500 * time.Millisecond})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("saturated Retry-After = %q, want \"2\" (1.5s rounds up)", got)
	}

	// The open-session cap is matched by type, whatever wraps it.
	rec = httptest.NewRecorder()
	srv.ingestError(rec, fmt.Errorf("shard 1: %w", stream.ErrSessionCap))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("session cap: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got == "" {
		t.Fatal("session cap: 429 without Retry-After")
	}

	rec = httptest.NewRecorder()
	srv.ingestError(rec, io.ErrUnexpectedEOF)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("plain error: status %d, want 400", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "" {
		t.Fatalf("plain error carries Retry-After %q", got)
	}
}

// TestShardedServeParity drives the sharded server over HTTP and pins
// the tentpole guarantee end to end: the model a 4-shard daemon serves
// is byte-identical (JSON and DOT) to a single-engine daemon fed the
// same traces in the canonical shard-major order, and the metrics and
// status surfaces carry consistent per-shard rows.
func TestShardedServeParity(t *testing.T) {
	const nShards, nTraces = 4, 8
	lens := []int{60, 90, 40, 120, 75, 55, 100, 80}

	sharded := newShardedTestServer(nShards)
	ts := httptest.NewServer(sharded.Handler())
	defer ts.Close()

	// Sequential uploads with explicit session ids; the response's shard
	// and local trace index define the canonical cross-shard order.
	type upload struct {
		seed         int64
		n            int
		shard, local int
	}
	var ups []upload
	records := 0
	for i := 0; i < nTraces; i++ {
		resp := mustPost(t, ts.URL+"/v1/traces?session=trace-"+string(rune('0'+i)), genNDJSON(t, int64(i), lens[i], true))
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: status %d: %s", i, resp.StatusCode, body)
		}
		var res shardedIngestResult
		if err := json.Unmarshal([]byte(body), &res); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		if res.Shard == nil || *res.Shard < 0 || *res.Shard >= nShards {
			t.Fatalf("upload %d: missing or out-of-range shard in %s", i, body)
		}
		if res.Records != lens[i] {
			t.Fatalf("upload %d: %d records acknowledged, want %d", i, res.Records, lens[i])
		}
		ups = append(ups, upload{seed: int64(i), n: lens[i], shard: *res.Shard, local: res.Trace})
		records += lens[i]
	}

	shardedModel := readAll(t, mustGet(t, ts.URL+"/v1/model"))
	shardedDOT := readAll(t, mustGet(t, ts.URL+"/v1/model?format=dot"))

	// Reference: a single-engine server fed the same traces sequentially
	// in canonical order — shards in index order, each shard's sessions
	// in completion (here: upload) order.
	sort.SliceStable(ups, func(i, j int) bool {
		if ups[i].shard != ups[j].shard {
			return ups[i].shard < ups[j].shard
		}
		return ups[i].local < ups[j].local
	})
	single := newTestServer()
	ss := httptest.NewServer(single.Handler())
	defer ss.Close()
	for _, u := range ups {
		resp := mustPost(t, ss.URL+"/v1/traces", genNDJSON(t, u.seed, u.n, true))
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("reference upload: status %d: %s", resp.StatusCode, body)
		}
	}
	singleModel := readAll(t, mustGet(t, ss.URL+"/v1/model"))
	singleDOT := readAll(t, mustGet(t, ss.URL+"/v1/model?format=dot"))
	if shardedModel != singleModel {
		t.Fatal("sharded JSON model differs from the canonical single-engine model")
	}
	if shardedDOT != singleDOT {
		t.Fatal("sharded DOT model differs from the canonical single-engine model")
	}

	// /metrics: fleet sums plus one row per shard, consistent with them.
	var mdoc struct {
		PSMD struct {
			RecordsIngested int64               `json:"records_ingested"`
			TracesCompleted int                 `json:"traces_completed"`
			Shards          []shard.ShardMetric `json:"shards"`
		} `json:"psmd"`
	}
	if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/metrics"))), &mdoc); err != nil {
		t.Fatal(err)
	}
	if mdoc.PSMD.RecordsIngested != int64(records) || mdoc.PSMD.TracesCompleted != nTraces {
		t.Fatalf("fleet sums: %d records / %d traces, want %d / %d",
			mdoc.PSMD.RecordsIngested, mdoc.PSMD.TracesCompleted, records, nTraces)
	}
	if len(mdoc.PSMD.Shards) != nShards {
		t.Fatalf("metrics carry %d shard rows, want %d", len(mdoc.PSMD.Shards), nShards)
	}
	var sumRec int64
	var sumTraces int
	for i, row := range mdoc.PSMD.Shards {
		if row.Shard != i {
			t.Fatalf("shard row %d labeled %d", i, row.Shard)
		}
		if row.QueueCap <= 0 {
			t.Fatalf("shard row %d reports queue cap %d", i, row.QueueCap)
		}
		sumRec += row.RecordsIngested
		sumTraces += row.TracesCompleted
	}
	if sumRec != int64(records) || sumTraces != nTraces {
		t.Fatalf("shard rows sum to %d records / %d traces, want %d / %d",
			sumRec, sumTraces, records, nTraces)
	}

	// Prometheus exposition carries the per-shard gauges.
	prom := readAll(t, mustGet(t, ts.URL+"/metrics?format=prometheus"))
	if !strings.Contains(prom, "psmd_shard0_queue_depth") {
		t.Fatal("prometheus exposition lacks per-shard queue gauges")
	}

	// /v1/status carries the same per-shard rows.
	var sdoc struct {
		Ready  bool                `json:"ready"`
		Shards []shard.ShardMetric `json:"shards"`
		Engine struct {
			TracesCompleted int `json:"traces_completed"`
		} `json:"engine"`
	}
	if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/v1/status"))), &sdoc); err != nil {
		t.Fatal(err)
	}
	if !sdoc.Ready || sdoc.Engine.TracesCompleted != nTraces {
		t.Fatalf("status: ready=%v traces=%d, want true/%d", sdoc.Ready, sdoc.Engine.TracesCompleted, nTraces)
	}
	if len(sdoc.Shards) != nShards {
		t.Fatalf("status carries %d shard rows, want %d", len(sdoc.Shards), nShards)
	}

	// Graceful drain: flush and stop the shard workers; the final
	// metrics still cover everything acknowledged.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sharded.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if m := sharded.Metrics(); m.RecordsIngested != int64(records) || m.TracesCompleted != nTraces {
		t.Fatalf("post-drain metrics: %+v", m)
	}
}

// TestShardedIngestErrors replays the single-engine failure cases
// against a sharded server: the deferred worker-side errors must come
// back with the same status codes, and nothing may leak.
func TestShardedIngestErrors(t *testing.T) {
	srv := newShardedTestServer(2)
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

	if m := srv.Metrics(); m.OpenSessions != 0 || m.TracesCompleted != 0 {
		t.Fatalf("failed uploads leaked state: %+v", m)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return resp
}
