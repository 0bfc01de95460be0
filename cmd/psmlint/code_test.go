package main

import (
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
