package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func rulesHit(fs []Finding) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.Rule]++
	}
	return out
}

const goMod = "module lintfixture\n\ngo 1.22\n"

func TestFloatEqRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"a.go": `package a

import "math"

func Bad(x, y float64) bool { return x == y }

func BadNeq(x float64, v float32) bool { return v != 0.5 }

func OkZeroSentinel(x float64) bool { return x == 0 }

func OkInfSentinel(x float64) bool { return x == math.Inf(-1) }

func OkInts(a, b int) bool { return a == b }
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	hits := rulesHit(fs)
	if hits["float-eq"] != 2 {
		t.Fatalf("want 2 float-eq findings (Bad, BadNeq), got %d: %v", hits["float-eq"], fs)
	}
}

func TestNanGuardRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"a.go": `package a

type S struct{ N int }

func Bad(a, b float64) float64 { return a / b }

func BadConstZero(a float64) float64 { return a / 0.0 }

func OkGuarded(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func OkConversion(a float64, s S) float64 {
	if s.N == 0 {
		return 0
	}
	return a / float64(s.N)
}

func OkAlias(a float64, s S) float64 {
	if s.N < 1 {
		return 0
	}
	n := float64(s.N)
	return a / n
}

func OkNonzeroConst(a float64) float64 { return a / 2 }

func OkCompound(a, b, c float64) float64 { return a / (b + c + 1) }
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, f := range fs {
		if f.Rule != "nan-guard" {
			t.Fatalf("unexpected %s finding: %+v", f.Rule, f)
		}
		msgs = append(msgs, f.Msg)
	}
	if len(fs) != 2 {
		t.Fatalf("want 2 nan-guard findings (Bad, BadConstZero), got %d: %v", len(fs), fs)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "constant zero") {
		t.Fatalf("constant-zero division not identified: %v", msgs)
	}
}

func TestErrDropRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"a.go": `package a

import (
	"fmt"
	"os"
	"strings"
)

func mayFail() error { return nil }

func Bad() {
	mayFail()
}

func BadWrite(f *os.File) {
	f.Sync()
}

func OkAssigned() error {
	err := mayFail()
	return err
}

func OkBlank() {
	_ = mayFail()
}

func OkFmt() {
	fmt.Println("hello")
}

func OkClose(f *os.File) {
	f.Close()
}

func OkBuilder(sb *strings.Builder) {
	sb.WriteString("x")
}
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	hits := rulesHit(fs)
	if hits["err-drop"] != 2 {
		t.Fatalf("want 2 err-drop findings (Bad, BadWrite), got %d: %v", hits["err-drop"], fs)
	}
}

func TestSuppressionDirective(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"a.go": `package a

func SameLine(a, b float64) bool { return a == b } //psmlint:ignore float-eq tolerance handled upstream

func LineAbove(a, b float64) float64 {
	//psmlint:ignore nan-guard b is a physical constant
	return a / b
}

func IgnoreAll(a, b float64) bool {
	//psmlint:ignore all
	return a == b
}

func StillFlagged(a, b float64) bool { return a == b } //psmlint:ignore nan-guard wrong rule id
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Rule != "float-eq" {
		t.Fatalf("want exactly the StillFlagged float-eq finding, got %v", fs)
	}
	if fs[0].Pos.Line != 15 {
		t.Fatalf("finding at line %d, want 15 (StillFlagged)", fs[0].Pos.Line)
	}
}

func TestRunSkipsTestAndVendorFiles(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"a.go":   "package a\n",
		"a_test.go": `package a

func helper(a, b float64) bool { return a == b }
`,
		"vendor/v/v.go": `package v

func Bad(a, b float64) bool { return a == b }
`,
		"testdata/t.go": `package t

func Bad(a, b float64) bool { return a == b }
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Fatalf("test/vendor/testdata files must be skipped, got %v", fs)
	}
}

func TestFindingsSortedByPosition(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": goMod,
		"b.go": `package a

func Later(a, b float64) bool { return a != b }
`,
		"a.go": `package a

func Earlier(a, b float64) bool { return a == b }
`,
	})
	fs, err := Run(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("want 2 findings, got %v", fs)
	}
	if !strings.HasSuffix(fs[0].Pos.Filename, "a.go") || !strings.HasSuffix(fs[1].Pos.Filename, "b.go") {
		t.Fatalf("findings not sorted by file: %v", fs)
	}
}
