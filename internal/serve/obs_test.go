package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// genRows draws one synthetic trace as raw rows + powers, so the same
// data can feed both an NDJSON upload and the batch trace types.
func genRows(seed int64, n int) ([][]logic.Vector, []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]logic.Vector, 0, n)
	pows := make([]float64, 0, n)
	en, op := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.2 {
			en = uint64(rng.Intn(2))
		}
		if rng.Float64() < 0.3 {
			op = uint64(rng.Intn(4))
		}
		rows = append(rows, []logic.Vector{logic.FromUint64(1, en), logic.FromUint64(2, op)})
		pows = append(pows, 1.0+2.5*float64(en)+0.01*rng.NormFloat64())
	}
	return rows, pows
}

func uploadBody(t testing.TB, rows [][]logic.Vector, pows []float64) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteHeader(HeaderForTest()); err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if err := enc.WriteRow(row, pows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func batchTraces(rows [][][]logic.Vector, pows [][]float64) ([]*trace.Functional, []*trace.Power) {
	var fts []*trace.Functional
	var pws []*trace.Power
	for i := range rows {
		ft := trace.NewFunctional(testSigs)
		for _, row := range rows[i] {
			ft.Append(row)
		}
		fts = append(fts, ft)
		pws = append(pws, &trace.Power{Values: pows[i]})
	}
	return fts, pws
}

// TestProvenanceParityWithBatch pins the acceptance invariant: over the
// same completed traces, GET /v1/provenance returns exactly the decision
// log the batch flow (psmgen -provenance) produces — same decisions,
// same canonical order, same statistics.
func TestProvenanceParityWithBatch(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var allRows [][][]logic.Vector
	var allPows [][]float64
	for i := 0; i < 3; i++ {
		rows, pows := genRows(int64(100+i), 400)
		allRows, allPows = append(allRows, rows), append(allPows, pows)
		// Sequential uploads: trace indices assign in order, like the
		// batch flow's file order.
		resp := mustPost(t, ts.URL+"/v1/traces", uploadBody(t, rows, pows))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %s", i, readAll(t, resp))
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/v1/provenance")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/provenance: %s", readAll(t, resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	served, err := obs.ReadDecisions(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(served) == 0 {
		t.Fatal("served provenance is empty")
	}

	// The batch flow over the same traces, same policies.
	scfg := srv.cfg.Stream
	fts, pws := batchTraces(allRows, allPows)
	log := obs.NewProvenanceLog()
	ctx := obs.WithProvenance(context.Background(), log)
	cfg := pipeline.Config{Workers: 4, Mining: scfg.Mining, Merge: scfg.Merge}
	chains, err := pipeline.BuildChains(ctx, fts, pws, cfg)
	if err != nil {
		t.Fatal(err)
	}
	psm.JoinCtx(ctx, chains, scfg.Merge)
	batch := log.Decisions()

	if !reflect.DeepEqual(served, batch) {
		t.Fatalf("provenance diverges: served %d decisions, batch %d", len(served), len(batch))
	}

	// The export is idempotent and does not disturb the model cache.
	resp2, err := http.Get(ts.URL + "/v1/provenance")
	if err != nil {
		t.Fatal(err)
	}
	again, err := obs.ReadDecisions(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, again) {
		t.Fatal("provenance not idempotent")
	}
}

// TestProvenanceEmptyAndMethod pins the read surface before any trace
// has completed, on one engine and on 2 shards: the model, estimate and
// provenance endpoints answer 404 (the backend's ErrNoTraces), and a
// POST to /v1/provenance is 405.
func TestProvenanceEmptyAndMethod(t *testing.T) {
	for _, shards := range []int{0, 2} {
		srv := newShardedTestServer(shards)
		ts := httptest.NewServer(srv.Handler())

		for _, path := range []string{"/v1/model", "/v1/provenance"} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("shards=%d: GET %s on an empty backend: status %d, want 404", shards, path, resp.StatusCode)
			}
			resp.Body.Close()
		}
		resp := mustPost(t, ts.URL+"/v1/estimate", genNDJSON(t, 1, 10, false))
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("shards=%d: POST /v1/estimate on an empty backend: status %d, want 404", shards, resp.StatusCode)
		}
		resp.Body.Close()

		resp = mustPost(t, ts.URL+"/v1/provenance", strings.NewReader(""))
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("shards=%d: POST: status %d, want 405", shards, resp.StatusCode)
		}
		resp.Body.Close()
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMetricsDuringUploads hammers GET /metrics (both formats) while
// uploads run, pinning the epoch-consistency fix: under -race this is
// the regression test for the engine counters being read under the same
// lock as the model cache.
func TestMetricsDuringUploads(t *testing.T) {
	srv := newTestServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const uploaders, readers, rounds = 4, 4, 8
	var wg sync.WaitGroup
	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				body := genNDJSON(t, int64(1000+u*rounds+r), 200, true)
				resp, err := http.Post(ts.URL+"/v1/traces", "application/x-ndjson", body)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(u)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				url := ts.URL + "/metrics"
				if g%2 == 1 {
					url += "?format=prometheus"
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				body := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
					return
				}
				if g%2 == 0 {
					var doc map[string]json.RawMessage
					if err := json.Unmarshal([]byte(body), &doc); err != nil {
						t.Errorf("metrics JSON invalid: %v", err)
						return
					}
					for _, key := range []string{"psmd", "psmd_registry", "memstats"} {
						if _, ok := doc[key]; !ok {
							t.Errorf("metrics JSON missing %q", key)
							return
						}
					}
				} else if !strings.Contains(body, "psmd_records_ingested_total") {
					t.Error("prometheus exposition missing psmd_records_ingested_total")
					return
				}
				// Interleave a model read so snapshots race the uploads too.
				if mresp, err := http.Get(ts.URL + "/v1/model"); err == nil {
					mresp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	var doc struct {
		PSMD struct {
			RecordsIngested int64 `json:"records_ingested"`
			TracesCompleted int   `json:"traces_completed"`
		} `json:"psmd"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	wantRecords := int64(uploaders * rounds * 200)
	if doc.PSMD.RecordsIngested != wantRecords || doc.PSMD.TracesCompleted != uploaders*rounds {
		t.Fatalf("final counters: %d records / %d traces, want %d / %d\n%s",
			doc.PSMD.RecordsIngested, doc.PSMD.TracesCompleted, wantRecords, uploaders*rounds, body)
	}
}

// TestPrometheusFleetCounters pins the fleet ingest counters on both
// export forms at one shard and at 2: the shard engines count into
// private registries, and the coordinator's registry must still carry
// the fleet values — equal to Server.Metrics — without per-shard
// collisions.
func TestPrometheusFleetCounters(t *testing.T) {
	for _, shards := range []int{1, 2} {
		srv := newShardedTestServer(shards)
		ts := httptest.NewServer(srv.Handler())
		for i := 0; i < 3; i++ {
			resp := mustPost(t, ts.URL+"/v1/traces", genNDJSON(t, int64(500+i), 150, true))
			if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d: upload %d: %s", shards, i, body)
			}
		}
		m := srv.Metrics()
		prom := readAll(t, mustGet(t, ts.URL+"/metrics?format=prometheus"))
		for _, want := range []string{
			fmt.Sprintf("psmd_records_ingested_total %d\n", m.RecordsIngested),
			fmt.Sprintf("psmd_traces_completed_total %d\n", m.TracesCompleted),
			fmt.Sprintf("psmd_sessions_open %d\n", m.OpenSessions),
		} {
			if !strings.Contains(prom, want) {
				t.Fatalf("shards=%d: prometheus exposition lacks %q", shards, want)
			}
		}
		var doc struct {
			Registry obs.Snapshot `json:"psmd_registry"`
		}
		if err := json.Unmarshal([]byte(readAll(t, mustGet(t, ts.URL+"/metrics"))), &doc); err != nil {
			t.Fatal(err)
		}
		if c := doc.Registry.Counters; c["psmd_records_ingested_total"] != 450 || c["psmd_traces_completed_total"] != 3 {
			t.Fatalf("shards=%d: psmd_registry counters %v, want 450 records / 3 traces", shards, c)
		}
		if g, ok := doc.Registry.Gauges["psmd_sessions_open"]; !ok || g != 0 {
			t.Fatalf("shards=%d: psmd_registry gauge psmd_sessions_open = %v (present %v), want 0", shards, g, ok)
		}
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProvenanceNonFiniteParity pins /v1/provenance on a case whose
// decisions carry non-finite statistics: the power of every en=0
// instant is exactly 1.0, so a constant-power until-state tested
// against a one-instant en=1 next-state gives t = -Inf. The served
// NDJSON must still be byte-identical to `psmgen -provenance` — the
// batch chains joined by psm.JoinCtx — over the same traces in
// canonical order, at one shard and at 2.
func TestProvenanceNonFiniteParity(t *testing.T) {
	const traces = 4
	var allRows [][][]logic.Vector
	var allPows [][]float64
	for i := 0; i < traces; i++ {
		rows, pows := genRows(int64(700+i), 300)
		for k, row := range rows {
			if row[0].Bit(0) == 0 {
				pows[k] = 1.0
			}
		}
		allRows, allPows = append(allRows, rows), append(allPows, pows)
	}
	for _, shards := range []int{1, 2} {
		srv := newShardedTestServer(shards)
		ts := httptest.NewServer(srv.Handler())
		type ack struct{ shard, local, trace int }
		var acks []ack
		for i := range allRows {
			resp := mustPost(t, fmt.Sprintf("%s/v1/traces?session=s%d", ts.URL, i), uploadBody(t, allRows[i], allPows[i]))
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d: upload %d: %s", shards, i, body)
			}
			var res struct {
				Trace int `json:"trace"`
				Shard int `json:"shard"`
			}
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatalf("shards=%d: upload %d: ack %s (%v)", shards, i, body, err)
			}
			acks = append(acks, ack{res.Shard, res.Trace, i})
		}
		served := readAll(t, mustGet(t, ts.URL+"/v1/provenance"))

		sort.Slice(acks, func(a, b int) bool {
			if acks[a].shard != acks[b].shard {
				return acks[a].shard < acks[b].shard
			}
			return acks[a].local < acks[b].local
		})
		var rows [][][]logic.Vector
		var pows [][]float64
		for _, a := range acks {
			rows, pows = append(rows, allRows[a.trace]), append(pows, allPows[a.trace])
		}
		scfg := srv.cfg.Stream
		fts, pws := batchTraces(rows, pows)
		log := obs.NewProvenanceLog()
		ctx := obs.WithProvenance(context.Background(), log)
		chains, err := pipeline.BuildChains(ctx, fts, pws, pipeline.Config{Workers: 2, Mining: scfg.Mining, Merge: scfg.Merge})
		if err != nil {
			t.Fatal(err)
		}
		psm.JoinCtx(ctx, chains, scfg.Merge)
		ds := log.Decisions()
		nonFinite := 0
		for _, d := range ds {
			if math.IsInf(d.T, 0) || math.IsNaN(d.T) || math.IsInf(d.Stat, 0) || math.IsNaN(d.Stat) {
				nonFinite++
			}
		}
		if nonFinite == 0 {
			t.Fatalf("shards=%d: the case no longer produces a non-finite statistic", shards)
		}
		var want bytes.Buffer
		if err := obs.WriteDecisions(&want, ds); err != nil {
			t.Fatal(err)
		}
		if served != want.String() {
			t.Fatalf("shards=%d: /v1/provenance (%d bytes) differs from the batch log (%d bytes, %d decisions, %d non-finite)",
				shards, len(served), want.Len(), len(ds), nonFinite)
		}
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
