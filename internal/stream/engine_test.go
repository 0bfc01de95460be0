package stream

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/trace"
)

func testSchema() []trace.Signal {
	return []trace.Signal{{Name: "en", Width: 1}, {Name: "op", Width: 2}}
}

func rowOf(en, op uint64) []logic.Vector {
	return []logic.Vector{logic.FromUint64(1, en), logic.FromUint64(2, op)}
}

func TestEngineOpenErrors(t *testing.T) {
	e := NewEngine(Config{})
	if _, err := e.Open(nil); err == nil {
		t.Fatal("empty schema must fail Open")
	}
	e = NewEngine(Config{Inputs: []string{"nosuch"}})
	if _, err := e.Open(testSchema()); err == nil {
		t.Fatal("unknown input name must fail the first Open")
	}

	e = NewEngine(Config{Inputs: []string{"op"}})
	s, err := e.Open(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	if got := e.InputCols(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("input cols %v, want [1]", got)
	}
	if _, err := e.Open([]trace.Signal{{Name: "other", Width: 1}}); err == nil {
		t.Fatal("schema mismatch must fail later Opens")
	}
}

func TestEngineSessionLimits(t *testing.T) {
	e := NewEngine(Config{MaxOpenSessions: 1, MaxRecords: 2})
	s, err := e.Open(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open(testSchema()); err == nil {
		t.Fatal("second concurrent session must exceed MaxOpenSessions")
	}

	if err := s.Append(rowOf(0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rowOf(1, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rowOf(0, 1), 1); err == nil {
		t.Fatal("third record must exceed MaxRecords")
	}
	if err := s.Append(rowOf(0, 1)[:1], 1); err == nil {
		t.Fatal("short row must fail schema validation")
	}
	if err := s.Append([]logic.Vector{logic.FromUint64(2, 0), logic.FromUint64(2, 0)}, 1); err == nil {
		t.Fatal("wrong signal width must fail schema validation")
	}

	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rowOf(0, 0), 1); err == nil {
		t.Fatal("append after Close must fail")
	}
	if _, err := s.Close(); err == nil {
		t.Fatal("double Close must fail")
	}
	s.Abort() // after Close: a no-op, must not unbalance the counters
	if m := e.Metrics(); m.OpenSessions != 0 {
		t.Fatalf("open sessions %d, want 0", m.OpenSessions)
	}

	// The freed slot admits a new session.
	s2, err := e.Open(testSchema())
	if err != nil {
		t.Fatalf("slot not released after Close: %v", err)
	}
	s2.Abort()
}

func TestEngineEmptySessionAndSnapshotErrors(t *testing.T) {
	e := NewEngine(Config{})
	if _, err := e.Snapshot(context.Background()); err == nil {
		t.Fatal("snapshot with no completed traces must fail")
	}
	s, err := e.Open(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err == nil {
		t.Fatal("closing an empty session must fail (batch rejects empty traces)")
	}
	if _, err := e.Snapshot(context.Background()); err == nil {
		t.Fatal("a rejected empty session must not count as a trace")
	}
}

// TestEngineTooShortTrace: a session whose records all carry one
// candidate-atom signature exposes no temporal pattern under any kept
// atom set, so Close rejects it like an empty session — nothing reaches
// the mining statistics and its records are rolled back, as Abort rolls
// them back — and a later good session still snapshots.
func TestEngineTooShortTrace(t *testing.T) {
	ctx := context.Background()
	e := NewEngine(Config{SkipCalibration: true})
	upload := func(bits []uint64, op uint64) (int, error) {
		t.Helper()
		s, err := e.Open(testSchema())
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]logic.Vector, len(bits))
		powers := make([]float64, len(bits))
		for i, b := range bits {
			rows[i], powers[i] = rowOf(b, op), float64(b)
		}
		if err := s.AppendBatch(rows, powers); err != nil {
			t.Fatal(err)
		}
		return s.Close()
	}

	if _, err := upload([]uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 2); err == nil {
		t.Fatal("a session with one candidate-atom signature must fail Close")
	}
	st, rows, traces := e.MiningStats()
	if rows != 0 || traces != 0 || !reflect.DeepEqual(st, make([]mining.AtomStats, len(st))) {
		t.Fatalf("rejected session reached the mining statistics: %d rows, %d traces", rows, traces)
	}
	if m := e.Metrics(); m.RecordsIngested != 0 || m.OpenSessions != 0 || m.TracesCompleted != 0 {
		t.Fatalf("after the rejection: %d records, %d open, %d traces; want 0/0/0",
			m.RecordsIngested, m.OpenSessions, m.TracesCompleted)
	}
	if _, err := e.Snapshot(ctx); !errors.Is(err, ErrNoTraces) {
		t.Fatalf("snapshot after only a rejected session: %v, want ErrNoTraces", err)
	}

	good := []uint64{0, 0, 1, 1, 0, 0, 1, 1}
	if idx, err := upload(good, 0); err != nil || idx != 0 {
		t.Fatalf("good session after the rejection: trace %d, %v; want trace 0", idx, err)
	}
	if _, err := e.Snapshot(ctx); err != nil {
		t.Fatalf("snapshot after a good session: %v", err)
	}
	if m := e.Metrics(); m.RecordsIngested != int64(len(good)) {
		t.Fatalf("records %d, want the good session's %d", m.RecordsIngested, len(good))
	}
}

func TestEngineMetricsHistogram(t *testing.T) {
	e := NewEngine(Config{SkipCalibration: true})
	s, err := e.Open(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	pat := []uint64{0, 0, 1, 1, 0, 0, 1, 1}
	for _, b := range pat {
		if err := s.Append(rowOf(b, 0), float64(b)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.RecordsIngested != int64(len(pat)) {
		t.Fatalf("records %d, want %d", m.RecordsIngested, len(pat))
	}
	if m.Snapshots != 1 || m.Rebuilds != 1 {
		t.Fatalf("snapshots=%d rebuilds=%d, want 1/1 (first snapshot always rebuilds)", m.Snapshots, m.Rebuilds)
	}
	if m.StatesServed <= 0 || m.StatesPooled < m.StatesServed {
		t.Fatalf("state counters inconsistent: pooled=%d served=%d", m.StatesPooled, m.StatesServed)
	}
	if m.StatesMerged != m.StatesPooled-m.StatesServed {
		t.Fatalf("merged=%d, want pooled-served=%d", m.StatesMerged, m.StatesPooled-m.StatesServed)
	}
	total := 0
	for _, n := range m.JoinLatency {
		total += n
	}
	if total != 1 {
		t.Fatalf("latency histogram holds %d samples, want 1", total)
	}
	if m.JoinNanos <= 0 {
		t.Fatal("join time not recorded")
	}
}
