package stream_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/obs"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
)

// This file holds the engine's oracles over the shard coordinator that
// psmd serves through: the single-engine provenance replay
// (Engine.Provenance, oracle_test.go) and the engine's steady-state
// snapshot cost, which a one-shard coordinator must match.

func newTestCoordinator(c parityCase, shards int) *shard.Coordinator {
	return shard.New(shard.Config{
		Shards: shards,
		Stream: stream.Config{Config: flowConfig(2), Inputs: c.inputs},
	})
}

// linesOf frames records [from, to) of trace i as NDJSON record lines.
func linesOf(t testing.TB, c parityCase, i, from, to int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	for r := from; r < to; r++ {
		if err := enc.WriteRow(c.fts[i].Row(r), c.pws[i].Values[r]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// interleaveCoordinator streams every trace of the case through the
// coordinator one framed record at a time, advancing a randomly picked
// open session each step, and returns the canonical global trace order:
// shard-major, each shard's sessions in completion order.
func interleaveCoordinator(t *testing.T, co *shard.Coordinator, c parityCase, rng *rand.Rand) []int {
	t.Helper()
	ctx := context.Background()
	sessions := make([]*shard.Session, len(c.fts))
	next := make([]int, len(c.fts))
	var open []int
	for i := range c.fts {
		s, err := co.Open(ctx, fmt.Sprintf("trace-%d", i), c.fts[i].Signals)
		if err != nil {
			t.Fatalf("open session %d: %v", i, err)
		}
		sessions[i] = s
		open = append(open, i)
	}
	type done struct{ shardIdx, local, traceIdx int }
	var closed []done
	for len(open) > 0 {
		k := rng.Intn(len(open))
		i, r := open[k], next[open[k]]
		if err := sessions[i].AppendLines(linesOf(t, c, i, r, r+1), 1, 2+r); err != nil {
			t.Fatalf("append trace %d record %d: %v", i, r, err)
		}
		next[i]++
		if next[i] == c.fts[i].Len() {
			local, _, err := sessions[i].Close(ctx)
			if err != nil {
				t.Fatalf("close trace %d: %v", i, err)
			}
			closed = append(closed, done{sessions[i].Shard(), local, i})
			open = append(open[:k], open[k+1:]...)
		}
	}
	sort.Slice(closed, func(a, b int) bool {
		if closed[a].shardIdx != closed[b].shardIdx {
			return closed[a].shardIdx < closed[b].shardIdx
		}
		return closed[a].local < closed[b].local
	})
	order := make([]int, len(closed))
	for i, d := range closed {
		order[i] = d.traceIdx
	}
	return order
}

// TestCrossShardProvenanceMatchesSingleEngine pins the audit trail: the
// coordinator's provenance replay must record exactly the decision
// sequence a single engine fed the canonical session order records.
func TestCrossShardProvenanceMatchesSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := genParityCase(rng)
	for len(c.fts) < 3 {
		c = genParityCase(rng)
	}
	ctx := context.Background()
	for _, n := range []int{1, 2, 4, 8} {
		co := newTestCoordinator(c, n)
		order := interleaveCoordinator(t, co, c, rng)

		eng := newTestEngine(c)
		for _, i := range order {
			s, err := eng.Open(c.fts[i].Signals)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < c.fts[i].Len(); r++ {
				if err := s.AppendBatch([][]logic.Vector{c.fts[i].Row(r)}, c.pws[i].Values[r:r+1]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}

		got, gotErr := co.Provenance(ctx)
		want, wantErr := eng.Provenance(ctx)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("shards %d: shard err %v, engine err %v", n, gotErr, wantErr)
		}
		if gotErr == nil {
			if len(got) == 0 {
				t.Fatalf("shards %d: empty provenance log", n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards %d: provenance decision sequences differ (%d vs %d decisions)",
					n, len(got), len(want))
			}
		}
		co.Close()
	}
}

// steadyCoordinator is steadyEngine on a one-shard coordinator: `total`
// uploads of the case's first trace and one settled snapshot.
func steadyCoordinator(t testing.TB, c parityCase, total int) *shard.Coordinator {
	t.Helper()
	co := newTestCoordinator(c, 1)
	for k := 0; k < total; k++ {
		uploadTrace(t, co, c, 0)
	}
	if _, err := co.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	return co
}

// uploadTrace streams the case's trace i through the coordinator as one
// framed batch, the way psmd's handler hands it over, and closes it.
func uploadTrace(t testing.TB, co *shard.Coordinator, c parityCase, i int) {
	t.Helper()
	ctx := context.Background()
	s, err := co.Open(ctx, "", c.fts[i].Signals)
	if err != nil {
		t.Fatal(err)
	}
	n := c.fts[i].Len()
	if err := s.AppendLines(linesOf(t, c, i, 0, n), n, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// snapshotFold snapshots under ctx with a span sink attached and
// returns how the coordinator folded: "delta" or "fresh".
func snapshotFold(t testing.TB, co *shard.Coordinator, ctx context.Context) string {
	t.Helper()
	var events bytes.Buffer
	if _, err := co.Snapshot(obs.WithTracer(ctx, obs.NewTracer(&events))); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(events.Bytes()), []byte("\n")) {
		var ev struct {
			Name  string `json:"name"`
			Attrs struct {
				Fold string `json:"fold"`
			} `json:"attrs"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Name == "snapshot" {
			return ev.Attrs.Fold
		}
	}
	t.Fatal("no snapshot span")
	return ""
}
