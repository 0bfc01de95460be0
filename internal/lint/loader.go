package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// loader is the module-aware package loader behind the driver's load
// pass. Parsing is concurrency-safe (parseDir guards its cache and the
// shared token.FileSet synchronizes internally); type-checking is
// serial, ordered by the import graph through Import.
type loader struct {
	fset    *token.FileSet
	root    string // the directory relative patterns resolve against
	modRoot string
	modPath string
	std     types.Importer

	parseMu sync.Mutex
	parsed  map[string]*parsedDir // keyed by directory

	pkgs    map[string]*loadedPkg // keyed by directory
	byPath  map[string]*types.Package
	loading map[string]bool
}

type parsedDir struct {
	files []*ast.File
	err   error
}

type loadedPkg struct {
	pkg *Package
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	return &loader{
		fset:    token.NewFileSet(),
		root:    abs,
		modRoot: modRoot,
		modPath: modPath,
		parsed:  map[string]*parsedDir{},
		pkgs:    map[string]*loadedPkg{},
		byPath:  map[string]*types.Package{},
		loading: map[string]bool{},
	}, nil
}

// loaded returns every package type-checked so far (targets and
// in-module dependencies), in a stable directory order.
func (l *loader) loaded() []*Package {
	dirs := make([]string, 0, len(l.pkgs))
	for dir, lp := range l.pkgs {
		if lp.pkg != nil {
			dirs = append(dirs, dir)
		}
	}
	sort.Strings(dirs)
	out := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		out = append(out, l.pkgs[dir].pkg)
	}
	return out
}

// findModule walks up from the absolute directory abs to the enclosing
// go.mod and parses the module path.
func findModule(abs string) (string, string, error) {
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

// expand resolves package patterns ("./...", "dir", "dir/...") into
// package directories, skipping vendor, testdata and hidden trees.
// Relative patterns resolve against the loader's root, as `go vet`
// resolves them against the working directory.
func (l *loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		base := pat
		if !filepath.IsAbs(base) {
			base = filepath.Join(l.root, pat)
		}
		st, err := os.Stat(base)
		if err != nil || !st.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q does not name a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseAll warms the parse cache for every directory on up to workers
// goroutines. Errors are not reported here — loadDir surfaces them in
// deterministic directory order.
func (l *loader) parseAll(dirs []string, workers int) {
	if workers > len(dirs) {
		workers = len(dirs)
	}
	if workers <= 1 {
		for _, dir := range dirs {
			l.parseDir(dir)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for _, dir := range dirs {
		wg.Add(1)
		sem <- struct{}{}
		go func(dir string) {
			defer func() { <-sem; wg.Done() }()
			l.parseDir(dir)
		}(dir)
	}
	wg.Wait()
}

// parseDir parses the non-test Go files of one directory, caching the
// result. Safe for concurrent use.
func (l *loader) parseDir(dir string) *parsedDir {
	dir = filepath.Clean(dir)
	l.parseMu.Lock()
	if pd, ok := l.parsed[dir]; ok {
		l.parseMu.Unlock()
		return pd
	}
	// Reserve the slot so concurrent callers of other directories never
	// duplicate work; this directory's parse runs outside the lock.
	l.parseMu.Unlock()

	pd := &parsedDir{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		pd.err = err
	} else {
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				pd.err = fmt.Errorf("lint: %w", err)
				break
			}
			pd.files = append(pd.files, f)
		}
	}

	l.parseMu.Lock()
	defer l.parseMu.Unlock()
	if prev, ok := l.parsed[dir]; ok {
		return prev // another goroutine won the race; keep its result
	}
	l.parsed[dir] = pd
	return pd
}

// moduleDir maps an import path inside the module to its directory.
func (l *loader) moduleDir(path string) (string, bool) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return "", false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	return filepath.Join(l.modRoot, filepath.FromSlash(rel)), true
}

// loadExports points the importer of packages outside the module at
// their compiled export data, listed by one `go list -export -deps` call
// over every outside import that the module packages reachable from
// dirs name. (The gc importer's default lookup runs one `go list`
// subprocess per imported package; type-checking the standard library
// from source would cost several seconds per run.)
func (l *loader) loadExports(dirs []string) error {
	exports := map[string]string{}
	if imports := l.externalImports(dirs); len(imports) > 0 {
		args := append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}, imports...)
		cmd := exec.Command("go", args...)
		cmd.Dir = l.modRoot
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("lint: go list -export: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, " "); ok && file != "" {
				exports[path] = file
			}
		}
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		if file, ok := exports[path]; ok {
			return os.Open(file)
		}
		return nil, fmt.Errorf("lint: no export data for %q", path)
	})
	return nil
}

// externalImports returns, sorted, the import paths outside the module
// that the Go files of dirs, and of every module package they reach,
// name.
func (l *loader) externalImports(dirs []string) []string {
	seen := map[string]bool{}
	ext := map[string]bool{}
	queue := append([]string(nil), dirs...)
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		if seen[dir] {
			continue
		}
		seen[dir] = true
		for _, f := range l.parseDir(dir).files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil || path == "C" {
					continue
				}
				if d, ok := l.moduleDir(path); ok {
					queue = append(queue, d)
				} else {
					ext[path] = true
				}
			}
		}
	}
	paths := make([]string, 0, len(ext))
	for p := range ext {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// Import implements types.Importer: module-internal paths load from the
// module tree, everything else from the export data loadExports listed.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "C" {
		return nil, fmt.Errorf("lint: cgo is not supported")
	}
	if p, ok := l.byPath[path]; ok {
		return p, nil
	}
	if dir, ok := l.moduleDir(path); ok {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.byPath[path] = p
	return p, nil
}

// loadDir type-checks the non-test Go files of one directory (parsing
// them first if parseAll has not). It returns nil (no error) when the
// directory holds no buildable files. Not safe for concurrent use — the
// import graph serializes type-checking.
func (l *loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	if cached, ok := l.pkgs[dir]; ok {
		return cached.pkg, nil
	}
	if l.loading[dir] {
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	defer delete(l.loading, dir)

	pd := l.parseDir(dir)
	if pd.err != nil {
		return nil, pd.err
	}
	if len(pd.files) == 0 {
		l.pkgs[dir] = &loadedPkg{}
		return nil, nil
	}

	importPath := l.importPath(dir)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(error) {}, // tolerate: rules skip unresolved types
	}
	tpkg, _ := conf.Check(importPath, l.fset, pd.files, info)
	pkg := &Package{Fset: l.fset, Files: pd.files, Info: info, Types: tpkg}
	l.pkgs[dir] = &loadedPkg{pkg: pkg}
	if tpkg != nil {
		l.byPath[importPath] = tpkg
	}
	return pkg, nil
}

// importPath maps a directory under the module root to its import path.
func (l *loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}
