package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// ndjsonOf renders an upload over an arbitrary schema: n records, each
// value cycling through its signal's low bits.
func ndjsonOf(t *testing.T, sigs []trace.Signal, n int) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteHeader(stream.HeaderFor(sigs, nil)); err != nil {
		t.Fatal(err)
	}
	row := make([]logic.Vector, len(sigs))
	for i := 0; i < n; i++ {
		for k, s := range sigs {
			row[k] = logic.FromUint64(s.Width, uint64(i>>k)&3)
		}
		if err := enc.WriteRow(row, 1+float64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestConstantUploadKeepsModel: a session whose records are all
// identical exposes no temporal pattern under any kept atom set, so it
// is rejected with a 400 on one engine and on 2 shards. It must not
// reach the model: /v1/model stays 200 after it and after a later good
// upload, and the rejected records are not counted.
func TestConstantUploadKeepsModel(t *testing.T) {
	for _, shards := range []int{0, 2} {
		srv := newShardedTestServer(shards)
		ts := httptest.NewServer(srv.Handler())
		upload := func(body *bytes.Buffer, want int) {
			t.Helper()
			resp := mustPost(t, ts.URL+"/v1/traces", body)
			if msg := readAll(t, resp); resp.StatusCode != want {
				t.Fatalf("shards=%d: upload status %d, want %d: %s", shards, resp.StatusCode, want, msg)
			}
		}
		modelOK := func(when string) {
			t.Helper()
			resp, err := http.Get(ts.URL + "/v1/model")
			if err != nil {
				t.Fatal(err)
			}
			if msg := readAll(t, resp); resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d: GET /v1/model %s: status %d: %s", shards, when, resp.StatusCode, msg)
			}
		}

		upload(genNDJSON(t, 0, 200, true), http.StatusOK)
		upload(genNDJSON(t, 1, 200, true), http.StatusOK)
		modelOK("after two good uploads")

		var constant bytes.Buffer
		constant.WriteString(`{"signals":[{"name":"en","width":1},{"name":"op","width":2}],"inputs":["op"]}` + "\n")
		constant.WriteString(strings.Repeat(`{"v":["1","2"],"p":1.5}`+"\n", 50))
		upload(&constant, http.StatusBadRequest)
		modelOK("after a constant upload")

		upload(genNDJSON(t, 2, 200, true), http.StatusOK)
		modelOK("after a later good upload")

		if m := srv.Metrics(); m.TracesCompleted != 3 || m.RecordsIngested != 600 || m.OpenSessions != 0 {
			t.Fatalf("shards=%d: %d traces, %d records, %d open; want 3/600/0 (the constant session counts for nothing)",
				shards, m.TracesCompleted, m.RecordsIngested, m.OpenSessions)
		}
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEstimateRejectsForeignSchema: /v1/estimate co-simulates the
// served model, whose atoms read the upload's rows by column, so an
// upload whose schema is narrower, wider or renamed is a 400 naming the
// first mismatch — on one engine and on 2 shards — while the model's
// own schema still estimates.
func TestEstimateRejectsForeignSchema(t *testing.T) {
	cases := []struct {
		name string
		sigs []trace.Signal
		want string
	}{
		{"narrower", []trace.Signal{{Name: "en", Width: 1}}, "1 signals, the model has 2"},
		{"wider", []trace.Signal{{Name: "en", Width: 1}, {Name: "op", Width: 8}}, `signal 1 is "op" width 8`},
		{"renamed", []trace.Signal{{Name: "enable", Width: 1}, {Name: "op", Width: 2}}, `signal 0 is "enable" width 1`},
	}
	for _, shards := range []int{0, 2} {
		srv := newShardedTestServer(shards)
		ts := httptest.NewServer(srv.Handler())
		resp := mustPost(t, ts.URL+"/v1/traces", genNDJSON(t, 0, 200, true))
		if msg := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: upload: status %d: %s", shards, resp.StatusCode, msg)
		}
		for _, tc := range cases {
			resp := mustPost(t, ts.URL+"/v1/estimate", ndjsonOf(t, tc.sigs, 20))
			msg := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
				t.Fatalf("shards=%d %s schema: status %d %q, want 400 naming %q", shards, tc.name, resp.StatusCode, msg, tc.want)
			}
		}
		resp = mustPost(t, ts.URL+"/v1/estimate", ndjsonOf(t, testSigs, 20))
		if msg := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: the model's own schema: status %d: %s", shards, resp.StatusCode, msg)
		}
		ts.Close()
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
