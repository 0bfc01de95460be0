package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"psmkit/internal/serve"
)

// ack is the body of an acknowledged upload.
type ack struct {
	Trace   int  `json:"trace"`
	Records int  `json:"records"`
	Shard   *int `json:"shard"`
}

// op is one timed client request.
type op struct {
	kind    string // "upload", "model", "estimate"
	session int    // pool index of an upload
	due     time.Time
	start   time.Time
	end     time.Time
	ok      bool
	ack     ack
	records int     // records acknowledged or estimated
	lateMs  float64 // how late the generator sent
}

// latencyMs is the op's latency from its due time (its start in a
// closed loop).
func (o *op) latencyMs() float64 {
	from := o.start
	if !o.due.IsZero() {
		from = o.due
	}
	return float64(o.end.Sub(from).Nanoseconds()) / 1e6
}

// psmd is an in-process psmd behind a loopback listener.
type psmd struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	once   sync.Once
}

// bootServer starts a server for a corpus; wrap, when set, sits between
// the listener and the server's handler (the self-test injects faults
// there).
func bootServer(cp *corpus, shards int, wrap func(http.Handler) http.Handler) *psmd {
	cfg := serve.DefaultConfig()
	cfg.Stream.Inputs = cp.inputs
	cfg.Shards = shards
	srv := serve.New(cfg)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	return &psmd{srv: srv, ts: ts, client: &http.Client{Transport: tr}}
}

// Close stops the listener, drains the shard queues and closes idle
// client connections.
func (p *psmd) Close() {
	p.once.Do(func() {
		p.ts.Close()
		// The run is over; a drain error leaves nothing to report.
		_ = p.srv.Drain(context.Background())
		p.client.CloseIdleConnections()
	})
}

func (p *psmd) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, p.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// upload posts one session body and fills the op.
func (p *psmd) upload(ctx context.Context, o *op, body []byte) {
	o.kind = "upload"
	o.start = time.Now()
	code, b, err := p.do(ctx, http.MethodPost, "/v1/traces", body)
	o.end = time.Now()
	if err != nil || code != http.StatusOK {
		return
	}
	if json.Unmarshal(b, &o.ack) != nil {
		return
	}
	o.ok = true
	o.records = o.ack.Records
}

// model fetches the live model as JSON.
func (p *psmd) model(ctx context.Context, o *op) []byte {
	o.kind = "model"
	o.start = time.Now()
	code, b, err := p.do(ctx, http.MethodGet, "/v1/model", nil)
	o.end = time.Now()
	o.ok = err == nil && code == http.StatusOK
	if !o.ok {
		return nil
	}
	return b
}

// estimate posts a functional stream to /v1/estimate.
func (p *psmd) estimate(ctx context.Context, o *op, body []byte) {
	o.kind = "estimate"
	o.start = time.Now()
	code, b, err := p.do(ctx, http.MethodPost, "/v1/estimate", body)
	o.end = time.Now()
	if err != nil || code != http.StatusOK {
		return
	}
	var res struct {
		Instants int      `json:"instants"`
		MRE      *float64 `json:"mre"`
	}
	if json.Unmarshal(b, &res) != nil || res.MRE == nil {
		return
	}
	o.ok = true
	o.records = res.Instants
}

// finalModel reads the model after the window, retrying nothing: the
// correctness check must see exactly what a client would.
func (p *psmd) finalModel(ctx context.Context) ([]byte, error) {
	code, b, err := p.do(ctx, http.MethodGet, "/v1/model", nil)
	if err != nil {
		return nil, fmt.Errorf("final GET /v1/model: %w", err)
	}
	if code != http.StatusOK {
		if len(b) > 300 {
			b = b[:300]
		}
		return nil, fmt.Errorf("final GET /v1/model: %d %s", code, b)
	}
	return b, nil
}
