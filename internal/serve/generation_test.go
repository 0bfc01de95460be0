package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"math/bits"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
)

// modelRead is one GET /v1/model as a client sees it.
type modelRead struct {
	code int
	etag string
	body string
}

// getModel reads the model, sending If-None-Match when inm is set.
func getModel(t testing.TB, client *http.Client, url, inm string) modelRead {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/model", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(b)) {
			t.Errorf("Content-Length %q for a %d-byte body", cl, len(b))
		}
	}
	return modelRead{code: resp.StatusCode, etag: resp.Header.Get("ETag"), body: string(b)}
}

// upload is one acknowledged session: its data and where it landed.
type upload struct {
	rows         [][]logic.Vector
	pows         []float64
	shard, local int
}

// postSession uploads one session under an explicit id and returns its
// acknowledgement.
func postSession(t testing.TB, client *http.Client, url, id string, rows [][]logic.Vector, pows []float64) upload {
	t.Helper()
	resp, err := client.Post(url+"/v1/traces?session="+id, "application/x-ndjson", uploadBody(t, rows, pows))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload %s: status %d: %s", id, resp.StatusCode, body)
	}
	var ack ingestResult
	if err := json.Unmarshal([]byte(body), &ack); err != nil {
		t.Fatal(err)
	}
	return upload{rows: rows, pows: pows, shard: ack.Shard, local: ack.Trace}
}

// batchJSON is the ground truth of a served body: pipeline.BuildModel
// over the sessions in canonical order (shard-major, each shard's
// sessions in completion order), exported as JSON.
func batchJSON(t testing.TB, srv *Server, ups []upload) (string, error) {
	t.Helper()
	ups = append([]upload(nil), ups...)
	sort.SliceStable(ups, func(i, j int) bool {
		if ups[i].shard != ups[j].shard {
			return ups[i].shard < ups[j].shard
		}
		return ups[i].local < ups[j].local
	})
	var rows [][][]logic.Vector
	var pows [][]float64
	for _, u := range ups {
		rows, pows = append(rows, u.rows), append(pows, u.pows)
	}
	fts, pws := batchTraces(rows, pows)
	scfg := srv.cfg.Stream
	cfg := pipeline.Config{Workers: 2, Mining: scfg.Mining, Merge: scfg.Merge, Calibration: scfg.Calibration}
	m, err := pipeline.BuildModel(context.Background(), fts, pws, srv.co.InputCols(), cfg)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), nil
}

func crcTag(body string) string {
	return fmt.Sprintf(`"%016x"`, crc64.Checksum([]byte(body), crc64.MakeTable(crc64.ECMA)))
}

// TestModelReadYourWrites pins the generation contract at Shards 1 and
// 2: a GET /v1/model made after an upload's ack includes that session —
// its body equals the batch model over the acknowledged sessions — and
// carries a new ETag, the CRC-64 (ECMA) of the body, with an exact
// Content-Length. If-None-Match naming the current tag (bare, weak, in
// a list, or *) gets a 304 with no body; naming an older tag gets the
// new body.
func TestModelReadYourWrites(t *testing.T) {
	for _, shards := range []int{1, 2} {
		srv := newShardedTestServer(shards)
		ts := httptest.NewServer(srv.Handler())
		client := ts.Client()
		var ups []upload
		var prev modelRead
		for i := 0; i < 4; i++ {
			rows, pows := genRows(int64(900+i), 200)
			ups = append(ups, postSession(t, client, ts.URL, fmt.Sprintf("rw-%d", i), rows, pows))

			got := getModel(t, client, ts.URL, "")
			if got.code != http.StatusOK {
				t.Fatalf("shards=%d upload %d: status %d: %s", shards, i, got.code, got.body)
			}
			want, err := batchJSON(t, srv, ups)
			if err != nil {
				t.Fatal(err)
			}
			if got.body != want {
				t.Fatalf("shards=%d: the read after upload %d's ack is not the batch model over the %d acknowledged sessions",
					shards, i, len(ups))
			}
			if got.etag != crcTag(got.body) {
				t.Fatalf("shards=%d upload %d: ETag %s, want the body's hash %s", shards, i, got.etag, crcTag(got.body))
			}
			if got.etag == prev.etag || got.body == prev.body {
				t.Fatalf("shards=%d upload %d: the new generation kept the old tag or body", shards, i)
			}
			for _, inm := range []string{got.etag, "W/" + got.etag, `"other", ` + got.etag, "*"} {
				if r := getModel(t, client, ts.URL, inm); r.code != http.StatusNotModified || r.body != "" || r.etag != got.etag {
					t.Fatalf("shards=%d If-None-Match %s: status %d, tag %s, %d body bytes; want 304, %s, none",
						shards, inm, r.code, r.etag, len(r.body), got.etag)
				}
			}
			if prev.etag != "" {
				if r := getModel(t, client, ts.URL, prev.etag); r.code != http.StatusOK || r.body != got.body {
					t.Fatalf("shards=%d: If-None-Match with the previous tag: status %d, want 200 with the new body", shards, r.code)
				}
			}
			prev = got
		}
		m := srv.Metrics()
		if m.Snapshots != len(ups) || m.Snapshots != m.Rebuilds+m.DeltaSnapshots {
			t.Fatalf("shards=%d: %d models built (%d rebuilds + %d delta) for %d generations",
				shards, m.Snapshots, m.Rebuilds, m.DeltaSnapshots, len(ups))
		}
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// genFitRows draws a trace whose power depends on the input Hamming
// distance of op, so the model has states the calibration fits.
func genFitRows(seed int64, n int) ([][]logic.Vector, []float64) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]logic.Vector, 0, n)
	pows := make([]float64, 0, n)
	en, op := uint64(0), uint64(0)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			en = uint64(rng.Intn(2))
		}
		prev := op
		if rng.Float64() < 0.6 {
			op = uint64(rng.Intn(4))
		}
		hd := float64(bits.OnesCount64(op ^ prev))
		rows = append(rows, []logic.Vector{logic.FromUint64(1, en), logic.FromUint64(2, op)})
		pows = append(pows, 1.0+2.5*float64(en)+0.8*hd+0.01*rng.NormFloat64())
	}
	return rows, pows
}

// lockedBuffer is a log sink the test reads while handlers may write.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestVerificationGate pins the gate both read endpoints share, at
// Shards 1 and 2: under CheckOptions that reject the live model (MinR
// above 1 on a model with fitted states) GET /v1/model, its DOT form
// and POST /v1/estimate all answer 500 stating the error count, the
// failure is logged and nothing is cached; a default-options server
// given the same uploads answers 200.
func TestVerificationGate(t *testing.T) {
	for _, shards := range []int{1, 2} {
		var logs lockedBuffer
		strictCfg := DefaultConfig()
		strictCfg.Stream.Inputs = []string{"op"}
		strictCfg.Shards = shards
		strictCfg.CheckOptions.MinR = 1.5
		strictCfg.Log = obs.NewLogger(&logs, obs.LevelInfo)
		strict := New(strictCfg)
		lenient := newShardedTestServer(shards)
		var bodies []*bytes.Buffer
		for i := 0; i < 3; i++ {
			rows, pows := genFitRows(int64(40+i), 300)
			bodies = append(bodies, uploadBody(t, rows, pows))
		}
		estimate := genNDJSON(t, 5, 60, true).Bytes()

		for _, tc := range []struct {
			srv  *Server
			want int
		}{{strict, http.StatusInternalServerError}, {lenient, http.StatusOK}} {
			ts := httptest.NewServer(tc.srv.Handler())
			for i, b := range bodies {
				resp := mustPost(t, ts.URL+"/v1/traces", bytes.NewReader(b.Bytes()))
				if msg := readAll(t, resp); resp.StatusCode != http.StatusOK {
					t.Fatalf("shards=%d upload %d: status %d: %s", shards, i, resp.StatusCode, msg)
				}
			}
			reads := []struct {
				name string
				do   func() (*http.Response, error)
			}{
				{"GET /v1/model", func() (*http.Response, error) { return http.Get(ts.URL + "/v1/model") }},
				{"GET /v1/model?format=dot", func() (*http.Response, error) { return http.Get(ts.URL + "/v1/model?format=dot") }},
				{"POST /v1/estimate", func() (*http.Response, error) {
					return http.Post(ts.URL+"/v1/estimate", "application/x-ndjson", bytes.NewReader(estimate))
				}},
			}
			for _, rd := range reads {
				resp, err := rd.do()
				if err != nil {
					t.Fatal(err)
				}
				msg := readAll(t, resp)
				if resp.StatusCode != tc.want {
					t.Fatalf("shards=%d MinR=%v %s: status %d, want %d: %.200s",
						shards, tc.srv.cfg.CheckOptions.MinR, rd.name, resp.StatusCode, tc.want, msg)
				}
				if tc.want == http.StatusInternalServerError {
					if !strings.Contains(msg, "live model failed verification (") || !strings.Contains(msg, "calibration") {
						t.Fatalf("shards=%d %s: the 500 does not state the verification errors: %.200s", shards, rd.name, msg)
					}
				}
			}
			ts.Close()
			if err := tc.srv.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
		}

		if n := strings.Count(logs.String(), `"msg":"live model failed verification"`); n != 3 {
			t.Fatalf("shards=%d: %d verification failures logged for 3 rejected reads:\n%s", shards, n, logs.String())
		}
		if !strings.Contains(logs.String(), `"errors":`) {
			t.Fatalf("shards=%d: the logged failure does not count its errors:\n%s", shards, logs.String())
		}
		strict.genMu.Lock()
		cached := strict.gen
		strict.genMu.Unlock()
		if cached != nil {
			t.Fatalf("shards=%d: a model that failed verification was cached", shards)
		}
		lenient.genMu.Lock()
		cached = lenient.gen
		lenient.genMu.Unlock()
		if cached == nil {
			t.Fatalf("shards=%d: the verified model was not cached", shards)
		}
	}
}

// TestReadUploadHammer runs uploaders (every third one disconnecting
// mid-body), /v1/model readers (one sending If-None-Match with the last
// tag it saw) and /v1/estimate callers concurrently, at Shards 1 and 2.
// After Drain the goroutine count returns to its baseline, no session
// is open, the ingest counter equals the acknowledged records, and
// every 200 model body equals the batch model over some per-shard
// prefix of the acknowledged sessions — the cut a snapshot reads.
func TestReadUploadHammer(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { hammerReadsAndUploads(t, shards) })
	}
}

func hammerReadsAndUploads(t *testing.T, shards int) {
	baseline := runtime.NumGoroutine()
	srv := newShardedTestServer(shards)
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{}}
	estimate := genNDJSON(t, 77, 40, false).Bytes()

	const uploaders, rounds = 3, 4
	var (
		mu       sync.Mutex
		acked    []upload
		records  int
		bodies   = map[string]string{} // ETag → body of every 200 read
		wg, upWG sync.WaitGroup
		stop     = make(chan struct{})
	)
	for u := 0; u < uploaders; u++ {
		upWG.Add(1)
		go func(u int) {
			defer upWG.Done()
			for r := 0; r < rounds; r++ {
				rows, pows := genRows(int64(3000+u*rounds+r), 150)
				id := fmt.Sprintf("h-%d-%d", u, r)
				if (u+r)%3 == 2 {
					// Disconnect mid-body: the session must abort.
					full := uploadBody(t, rows, pows).Bytes()
					pr, pw := io.Pipe()
					go func() {
						pw.Write(full[:len(full)/2])
						pw.CloseWithError(fmt.Errorf("client went away"))
					}()
					if resp, err := client.Post(ts.URL+"/v1/traces?session="+id, "application/x-ndjson", pr); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode == http.StatusOK {
							t.Errorf("a truncated upload was acknowledged")
						}
					}
					continue
				}
				resp, err := client.Post(ts.URL+"/v1/traces?session="+id, "application/x-ndjson", uploadBody(t, rows, pows))
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var ack ingestResult
				if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &ack) != nil {
					t.Errorf("upload %s: status %d: %s", id, resp.StatusCode, b)
					return
				}
				mu.Lock()
				acked = append(acked, upload{rows: rows, pows: pows, shard: ack.Shard, local: ack.Trace})
				records += ack.Records
				mu.Unlock()
			}
		}(u)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(conditional bool) {
			defer wg.Done()
			last := ""
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/model", nil)
				if conditional && last != "" {
					req.Header.Set("If-None-Match", last)
				}
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				tag := resp.Header.Get("ETag")
				switch resp.StatusCode {
				case http.StatusOK:
					if tag == "" || (conditional && tag == last) {
						t.Errorf("200 with tag %q after If-None-Match %q", tag, last)
					}
					mu.Lock()
					if prev, ok := bodies[tag]; ok && prev != string(b) {
						t.Errorf("tag %s served two different bodies", tag)
					}
					bodies[tag] = string(b)
					mu.Unlock()
					last = tag
				case http.StatusNotModified:
					if len(b) != 0 || tag != last {
						t.Errorf("304 with %d body bytes and tag %q for If-None-Match %q", len(b), tag, last)
					}
				case http.StatusNotFound: // before the first session completes
				default:
					t.Errorf("GET /v1/model: status %d: %s", resp.StatusCode, b)
				}
			}
		}(g == 1)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Post(ts.URL+"/v1/estimate", "application/x-ndjson", bytes.NewReader(estimate))
			if err != nil {
				t.Error(err)
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
				t.Errorf("POST /v1/estimate: status %d: %s", resp.StatusCode, b)
			}
		}
	}()
	upWG.Wait()
	close(stop)
	wg.Wait()
	// One last read covers every acknowledged session.
	final := getModel(t, client, ts.URL, "")
	if final.code != http.StatusOK {
		t.Fatalf("final read: status %d: %s", final.code, final.body)
	}
	bodies[final.etag] = final.body

	ts.Close()
	client.CloseIdleConnections()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			var dump bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines after Drain, %d before the server started:\n%s", runtime.NumGoroutine(), baseline, dump.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	reg := srv.Coordinator().Registry().Snapshot()
	if open := reg.Gauges["psmd_sessions_open"]; open != 0 {
		t.Fatalf("psmd_sessions_open = %v after Drain", open)
	}
	if got := reg.Counters["psmd_records_ingested_total"]; got != int64(records) {
		t.Fatalf("psmd_records_ingested_total = %d, acknowledged %d", got, records)
	}
	if got := reg.Counters["psmd_traces_completed_total"]; got != int64(len(acked)) {
		t.Fatalf("psmd_traces_completed_total = %d, acknowledged %d sessions", got, len(acked))
	}
	t.Logf("%d sessions acknowledged, %d generations read, %d models built, %d reuses",
		len(acked), len(bodies), reg.Counters["psmd_snapshots_total"], reg.Counters["psmd_snapshots_cached_total"])

	// Every served body is the batch model over a cut: a prefix of each
	// shard's acknowledged sessions in completion order.
	perShard := make([][]upload, shards)
	for _, u := range acked {
		perShard[u.shard] = append(perShard[u.shard], u)
	}
	for _, us := range perShard {
		sort.Slice(us, func(i, j int) bool { return us[i].local < us[j].local })
	}
	var cuts [][]int
	var walk func(i int, cut []int)
	walk = func(i int, cut []int) {
		if i == shards {
			cuts = append(cuts, append([]int(nil), cut...))
			return
		}
		for k := 0; k <= len(perShard[i]); k++ {
			walk(i+1, append(cut, k))
		}
	}
	walk(0, nil)
	want := map[string]bool{}
	for _, cut := range cuts {
		var ups []upload
		for i, k := range cut {
			ups = append(ups, perShard[i][:k]...)
		}
		if len(ups) == 0 {
			continue
		}
		if js, err := batchJSON(t, srv, ups); err == nil {
			want[js] = true
		}
	}
	for tag, body := range bodies {
		if !want[body] {
			t.Fatalf("the body served under %s is not the batch model over any prefix of the %d acknowledged sessions",
				tag, len(acked))
		}
	}
}

// BenchmarkModelRead times one GET /v1/model over loopback HTTP against
// a history of 8, 64 and 512 pooled chains (one session uploaded that
// many times). The miss arm uploads one more session before each read,
// outside the timer, so every read builds, verifies and encodes a new
// generation; the hit arm re-reads the cached one. Both report the mean
// bytes served per read. The miss arm's history grows by one chain per
// read, so compare its rows at a small fixed count (-benchtime 10x).
func BenchmarkModelRead(b *testing.B) {
	session := genNDJSON(b, 1, 300, true).Bytes()
	for _, total := range []int{8, 64, 512} {
		for _, arm := range []string{"miss", "hit"} {
			b.Run(fmt.Sprintf("%s/pooled=%d", arm, total), func(b *testing.B) {
				srv := newTestServer()
				ts := httptest.NewServer(srv.Handler())
				defer func() {
					ts.Close()
					if err := srv.Drain(context.Background()); err != nil {
						b.Fatal(err)
					}
				}()
				client := ts.Client()
				post := func() {
					resp, err := client.Post(ts.URL+"/v1/traces", "application/x-ndjson", bytes.NewReader(session))
					if err != nil {
						b.Fatal(err)
					}
					if msg := readAll(b, resp); resp.StatusCode != http.StatusOK {
						b.Fatalf("upload: status %d: %s", resp.StatusCode, msg)
					}
				}
				for k := 0; k < total; k++ {
					post()
				}
				getModel(b, client, ts.URL, "")
				served := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if arm == "miss" {
						b.StopTimer()
						post()
						b.StartTimer()
					}
					served += len(getModel(b, client, ts.URL, "").body)
				}
				b.ReportMetric(float64(served)/float64(b.N), "B/read")
			})
		}
	}
}
