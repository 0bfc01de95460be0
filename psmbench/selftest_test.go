package main

import (
	"bytes"
	"context"
	"net/http"
	"sync/atomic"
	"testing"
)

// tinyScale shrinks every input so one workload runs in about a second.
const tinyScale = 0.02

func tinyRun(t *testing.T, workload string, trace bool, tweak func(*options)) (result, string) {
	t.Helper()
	o := &options{workload: workload, seed: 3, seconds: 0.2, trace: trace, scale: tinyScale}
	if tweak != nil {
		tweak(o)
	}
	var out bytes.Buffer
	res, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricEmitted runs every workload untraced and traced at tiny
// scale: each must pass its own check and report every metric of its
// kind with the declared unit.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, out := tinyRun(t, w.Name, trace, nil)
			if !res.Correct {
				t.Fatalf("%s trace=%v: run not correct\n%s", w.Name, trace, out)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// TestAlteredModelFails changes one byte of the served model before the
// check: every workload must then report an incorrect run.
func TestAlteredModelFails(t *testing.T) {
	alter := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		if i := bytes.IndexByte(c, '1'); i >= 0 {
			c[i] = '2'
		} else {
			c = append(c, ' ')
		}
		return c
	}
	for _, w := range workloads {
		res, out := tinyRun(t, w.Name, false, func(o *options) { o.alter = alter })
		if res.Correct {
			t.Errorf("%s: altered model passed the check\n%s", w.Name, out)
		}
	}
}

// TestInjected429Counted refuses one upload in the timed window with a
// 429: the run must count it as failed, report it in failed_frac and
// still check the model over the acknowledged uploads.
func TestInjected429Counted(t *testing.T) {
	var posts atomic.Int64
	refuse := int64(setupReps*warmups + 1) // the first upload after set-up
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/traces" && posts.Add(1) == refuse {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "shard saturated", http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	res, out := tinyRun(t, "ingest", true, func(o *options) { o.wrap = wrap })
	if !res.Correct {
		t.Fatalf("run with a refused upload not correct\n%s", out)
	}
	if res.Failed != 1 {
		t.Errorf("failed = %d, want 1", res.Failed)
	}
	if f := res.Metrics["failed_frac"].Value; f <= 0 {
		t.Errorf("failed_frac = %g, want > 0", f)
	}
}
