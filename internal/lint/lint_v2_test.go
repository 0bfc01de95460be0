package lint

import (
	"strings"
	"testing"
)

// --- map-order ---------------------------------------------------------------

func TestMapOrderRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"a.go": `package a

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Emission committed per iteration: no later sort can repair it.
func BadDirect(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

// Slice built from a map range, serialized unsorted.
func BadUnsorted(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

// Builder writes count too: hashes and joined strings leak order.
func BadBuilder(m map[string]int) string {
	var sb strings.Builder
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		sb.WriteString(k)
	}
	return sb.String()
}

// The sort between build and write clears the hazard.
func OkSorted(w io.Writer, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(w, k)
	}
}

// Ranging a slice (already ordered) is fine.
func OkSlice(w io.Writer, xs []string) {
	for _, x := range xs {
		fmt.Fprintln(w, x)
	}
}
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var mapOrder []Finding
	for _, f := range fs {
		if f.Rule == "map-order" {
			mapOrder = append(mapOrder, f)
		}
	}
	if len(mapOrder) != 3 {
		t.Fatalf("want 3 map-order findings (BadDirect, BadUnsorted, BadBuilder), got %d: %v", len(mapOrder), mapOrder)
	}
	if !strings.Contains(mapOrder[0].Msg, "inside a map range") {
		t.Fatalf("BadDirect should report per-iteration emission, got %q", mapOrder[0].Msg)
	}
	for _, f := range mapOrder[1:] {
		if !strings.Contains(f.Msg, "without an intervening sort") {
			t.Fatalf("taint finding should mention the missing sort, got %q", f.Msg)
		}
	}
}

func TestMapOrderGobMapEncode(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"a.go": `package a

import (
	"encoding/gob"
	"encoding/json"
	"io"
)

type payload struct {
	Name  string
	Attrs map[string]float64
}

// gob writes map entries in randomized order: never byte-stable.
func BadGob(w io.Writer, p payload) error {
	return gob.NewEncoder(w).Encode(&p)
}

// encoding/json sorts map keys, so the same shape is deterministic.
func OkJSON(w io.Writer, p payload) error {
	return json.NewEncoder(w).Encode(&p)
}

type flat struct{ Name string }

// No map anywhere in the structure: clean.
func OkGobFlat(w io.Writer, f flat) error {
	return gob.NewEncoder(w).Encode(&f)
}
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var mapOrder []Finding
	for _, f := range fs {
		if f.Rule == "map-order" {
			mapOrder = append(mapOrder, f)
		}
	}
	if len(mapOrder) != 1 {
		t.Fatalf("want exactly the BadGob finding, got %v", mapOrder)
	}
	if !strings.Contains(mapOrder[0].Msg, "gob") || !strings.Contains(mapOrder[0].Msg, "Attrs") {
		t.Fatalf("gob finding should name the map field, got %q", mapOrder[0].Msg)
	}
}

// TestMapOrderCrossPackage is the cross-package taint test: the map
// range lives in package kv, the serialization in package dump, and the
// fact store carries the order-dependence across the boundary.
func TestMapOrderCrossPackage(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"kv/kv.go": `package kv

// Keys returns the map's keys in iteration (random) order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`,
		"dump/dump.go": `package dump

import (
	"fmt"
	"io"
	"sort"

	"lintfixture/kv"
)

func Bad(w io.Writer, m map[string]int) {
	ks := kv.Keys(m)
	fmt.Fprintln(w, ks)
}

func BadInline(w io.Writer, m map[string]int) {
	fmt.Fprintln(w, kv.Keys(m))
}

func Ok(w io.Writer, m map[string]int) {
	ks := kv.Keys(m)
	sort.Strings(ks)
	fmt.Fprintln(w, ks)
}
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var mapOrder []Finding
	for _, f := range fs {
		if f.Rule == "map-order" {
			mapOrder = append(mapOrder, f)
		}
	}
	if len(mapOrder) != 2 {
		t.Fatalf("want 2 cross-package map-order findings (Bad, BadInline), got %d: %v", len(mapOrder), mapOrder)
	}
	for _, f := range mapOrder {
		if !strings.HasSuffix(f.Pos.Filename, "dump/dump.go") {
			t.Fatalf("finding should land in the serializing package, got %v", f)
		}
		if !strings.Contains(f.Msg, "kv.Keys") {
			t.Fatalf("finding should name the cross-package producer, got %q", f.Msg)
		}
	}
}

// TestMapOrderCatchesPR2SaveRevert pins the rule to the historical bug
// it was built for: the original psm.Save gob-encoded a fileModel whose
// Initials field was a map[int]int, producing byte-flaky artifacts
// until it was replaced by a state-sorted pair slice. Reverting that
// fix must trip map-order at exactly the Encode call.
func TestMapOrderCatchesPR2SaveRevert(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		// The pre-fix psm.Save shape, reconstructed.
		"psm/file.go": `package psm

import (
	"encoding/gob"
	"io"
)

type Transition struct{ From, To int }

type Model struct {
	States      []int
	Transitions []Transition
	Initials    map[int]int
}

type fileModel struct {
	Magic       string
	States      []int
	Transitions []Transition
	Initials    map[int]int
}

func Save(w io.Writer, m *Model) error {
	enc := gob.NewEncoder(w)
	fm := fileModel{
		Magic:       "PSMKIT1",
		States:      m.States,
		Transitions: m.Transitions,
		Initials:    m.Initials,
	}
	return enc.Encode(&fm)
}
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var mapOrder []Finding
	for _, f := range fs {
		if f.Rule == "map-order" {
			mapOrder = append(mapOrder, f)
		}
	}
	if len(mapOrder) != 1 {
		t.Fatalf("reverted psm.Save must yield exactly one map-order finding, got %v", mapOrder)
	}
	f := mapOrder[0]
	if !strings.HasSuffix(f.Pos.Filename, "psm/file.go") || f.Pos.Line != 31 {
		t.Fatalf("finding must sit on the enc.Encode(&fm) call (psm/file.go:31), got %s:%d", f.Pos.Filename, f.Pos.Line)
	}
	if !strings.Contains(f.Msg, "Initials") || !strings.Contains(f.Msg, "map[int]int") {
		t.Fatalf("finding must name the Initials map field, got %q", f.Msg)
	}
}
