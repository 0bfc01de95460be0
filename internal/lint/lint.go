// Package lint is the code layer of psmlint: a standard-library-only
// static analysis driver (go/parser, go/ast, go/types — no external
// deps) with four rules tuned to this numeric, determinism-obsessed
// codebase:
//
//	float-eq   naked ==/!= between floating-point expressions
//	nan-guard  float division whose denominator has no zero guard
//	err-drop   call statements discarding an error result
//	map-order  map-iteration order reaching serialized output unsorted
//
// The driver is multi-pass and whole-program within the module:
//
//	pass 1 — load: package directories parse in parallel (the file set
//	         is concurrency-safe) and type-check serially in import
//	         order through a module-aware importer; the standard
//	         library comes from the toolchain's compiled export data;
//	pass 2 — facts: every loaded package (targets and their in-module
//	         dependencies alike) exports per-function facts — the
//	         map-order taint facts, "calling F yields a value whose
//	         element order derives from a map iteration" — iterated to
//	         a fixpoint so taint flows through call chains and across
//	         package boundaries;
//	pass 3 — rules: each rule checks each target package against the
//	         global fact store; packages are checked concurrently and
//	         findings are merged into one position-sorted report.
//
// Type-check errors are tolerated: rules only act on expressions whose
// types resolved, so partial information degrades to fewer findings, not
// to false positives.
//
// A finding can be suppressed with a directive comment on the same line
// or the line above:
//
//	//psmlint:ignore <rule-id> [reason]
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one code diagnostic.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

// Rule is one analysis pass over a type-checked package.
type Rule interface {
	// ID is the stable identifier reported in findings and honored by
	// //psmlint:ignore directives.
	ID() string
	// Check appends findings for one package. env carries the
	// cross-package analysis state (module layout, fact store).
	Check(p *Package, env *Env) []Finding
}

// Rules returns every code rule, ordered by id.
func Rules() []Rule {
	return []Rule{
		errDropRule{},
		floatEqRule{},
		mapOrderRule{},
		nanGuardRule{},
	}
}

// Package is one loaded, type-checked package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// Env is the whole-program context every rule checks against: the
// module layout (for root-relative reporting) and the fact store the
// facts pass populated over every loaded package.
type Env struct {
	ModRoot string
	Facts   *FactStore
}

// posLabel renders a position module-root-relative for embedding in
// finding messages, keeping reports machine-independent (the finding's
// own Pos stays absolute for editors).
func (e *Env) posLabel(p token.Position) string {
	return fmt.Sprintf("%s:%d", relativeURI(e.ModRoot, p.Filename), p.Line)
}

// relativeURI renders path relative to root with forward slashes, or
// path itself when it lies outside root.
func relativeURI(root, path string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, path); err == nil && !isDotDot(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(path)
}

func isDotDot(rel string) bool {
	return rel == ".." || len(rel) >= 3 && rel[:3] == "../"
}

// Run loads the packages matched by patterns (relative to root, which
// must lie inside a module, so "./..." names root's subtree) and applies
// every rule. Findings are sorted by position.
func Run(root string, patterns []string) ([]Finding, error) {
	rules := Rules()
	workers := runtime.GOMAXPROCS(0)
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}

	// Pass 1 — load. Parsing fans out (the token.FileSet synchronizes
	// internally); one `go list` call then lists the export data of
	// every import outside the module; type-checking stays serial
	// because the import graph orders it.
	l.parseAll(dirs, workers)
	if err := l.loadExports(dirs); err != nil {
		return nil, err
	}
	var targets []*Package
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable Go files
		}
		targets = append(targets, pkg)
	}

	// Pass 2 — facts, over every loaded package (in-module dependencies
	// included: cross-package taint needs the callee's facts even when
	// its package was not named in the patterns).
	env := &Env{ModRoot: l.modRoot, Facts: NewFactStore()}
	ComputeFacts(l.loaded(), env)

	// Pass 3 — rules, fanned out per target package. Each package has
	// its own types.Info and the fact store is read-only by now, so the
	// only shared mutable state is the findings slice.
	var (
		mu       sync.Mutex
		findings []Finding
		wg       sync.WaitGroup
		sem      = make(chan struct{}, workers)
	)
	for _, pkg := range targets {
		wg.Add(1)
		sem <- struct{}{}
		go func(pkg *Package) {
			defer func() { <-sem; wg.Done() }()
			sup := newSuppressions(pkg)
			var local []Finding
			for _, r := range rules {
				for _, f := range r.Check(pkg, env) {
					if !sup.suppressed(r.ID(), f.Pos) {
						local = append(local, f)
					}
				}
			}
			mu.Lock()
			findings = append(findings, local...)
			mu.Unlock()
		}(pkg)
	}
	wg.Wait()

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return findings, nil
}

// --- suppression directives -------------------------------------------------

// suppressions indexes //psmlint:ignore directives by file and line.
type suppressions struct {
	// byLine maps file:line to the rule ids ignored there ("all" matches
	// every rule).
	byLine map[string][]string
}

func newSuppressions(p *Package) *suppressions {
	s := &suppressions{byLine: map[string][]string{}}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//psmlint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				rule := "all"
				if len(fields) > 0 {
					rule = fields[0]
				}
				pos := p.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				s.byLine[key] = append(s.byLine[key], rule)
			}
		}
	}
	return s
}

// suppressed reports whether a finding of the rule at pos is silenced by a
// directive on the same line or the line above.
func (s *suppressions) suppressed(rule string, pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		key := fmt.Sprintf("%s:%d", pos.Filename, line)
		for _, r := range s.byLine[key] {
			if r == "all" || r == rule {
				return true
			}
		}
	}
	return false
}
