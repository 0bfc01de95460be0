package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixtureGoMod = "module lintfixture\n\ngo 1.22\n"

// writeFixtureModule lays out a throwaway module and chdirs into it
// (the code subcommand lints the module around the working directory).
func writeFixtureModule(t *testing.T, files map[string]string) string {
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
	t.Chdir(root)
	return root
}

const dirtySource = `package a

func mayFail() error { return nil }

func Bad(a, b float64) bool {
	mayFail()
	return a == b
}
`

func TestCodeCleanExitsZero(t *testing.T) {
	writeFixtureModule(t, map[string]string{
		"go.mod": fixtureGoMod,
		"a.go":   "package a\n\nfunc Ok() int { return 1 }\n",
	})
	code, out, stderr := runLint(t, "code", "./...")
	if code != 0 {
		t.Fatalf("clean module must exit 0, got %d\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
}

func TestCodeFindingsExitOne(t *testing.T) {
	writeFixtureModule(t, map[string]string{
		"go.mod": fixtureGoMod,
		"a.go":   dirtySource,
	})
	code, out, _ := runLint(t, "code", "./...")
	if code != 1 {
		t.Fatalf("findings must exit 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "[float-eq]") || !strings.Contains(out, "[err-drop]") {
		t.Fatalf("expected float-eq and err-drop findings:\n%s", out)
	}
}

func TestCodeLoadErrorExitsTwo(t *testing.T) {
	writeFixtureModule(t, map[string]string{
		"go.mod": fixtureGoMod,
		"a.go":   "package a\n",
	})
	code, _, stderr := runLint(t, "code", "./no-such-dir")
	if code != 2 {
		t.Fatalf("an unloadable package pattern must exit 2, got %d", code)
	}
	if !strings.Contains(stderr, "no-such-dir") {
		t.Fatalf("stderr should name the bad pattern:\n%s", stderr)
	}
}

// TestCodePatternsResolveAgainstWorkingDir: like `go vet ./...`, a
// pattern names the subtree of the directory psmlint runs in, not of
// the module root.
func TestCodePatternsResolveAgainstWorkingDir(t *testing.T) {
	const floatEq = "package %s\n\nfunc Eq(x, y float64) bool { return x == y }\n"
	root := writeFixtureModule(t, map[string]string{
		"go.mod": fixtureGoMod,
		"a/a.go": fmt.Sprintf(floatEq, "a"),
		"b/b.go": fmt.Sprintf(floatEq, "b"),
	})

	t.Chdir(filepath.Join(root, "a"))
	code, out, stderr := runLint(t, "code", "./...")
	if code != 1 {
		t.Fatalf("run in a/: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	if !strings.Contains(out, filepath.Join("a", "a.go")) || strings.Contains(out, filepath.Join("b", "b.go")) {
		t.Fatalf("run in a/ must report a/ only:\n%s", out)
	}

	t.Chdir(root)
	code, out, _ = runLint(t, "code", "./...")
	if code != 1 || !strings.Contains(out, filepath.Join("a", "a.go")) || !strings.Contains(out, filepath.Join("b", "b.go")) {
		t.Fatalf("run at the root: exit %d, want 1 with both findings:\n%s", code, out)
	}
}
