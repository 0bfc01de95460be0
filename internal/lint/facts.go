package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TaintFact records that calling a function yields a value whose
// element order derives from iterating a map without an intervening
// sort. Facts are exported per package and consulted across package
// boundaries: a slice built by ranging a map in package A keeps its
// order-dependence when package B serializes it.
type TaintFact struct {
	// Func is the producer's fully qualified name (types.Func.FullName).
	Func string
	// Origin is the map-range statement the order leaks from.
	Origin token.Position
}

// FactStore is the driver's cross-package fact table, populated by the
// facts pass (ComputeFacts) before any rule runs and read-only after.
type FactStore struct {
	tainted map[*types.Func]TaintFact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{tainted: map[*types.Func]TaintFact{}}
}

// setTainted records a fact, reporting whether it was new.
func (s *FactStore) setTainted(fn *types.Func, f TaintFact) bool {
	if _, ok := s.tainted[fn]; ok {
		return false
	}
	s.tainted[fn] = f
	return true
}

// Tainted reports the map-order fact attached to fn, if any.
func (s *FactStore) Tainted(fn *types.Func) (TaintFact, bool) {
	if s == nil || fn == nil {
		return TaintFact{}, false
	}
	f, ok := s.tainted[fn]
	return f, ok
}

// ComputeFacts runs the fact pass over every loaded package, iterating
// to a fixpoint so facts flow through call chains (A returns B's
// map-ordered result) and across packages in either direction. The
// iteration count is bounded by the call-chain depth; the cap only
// guards against pathological object graphs.
func ComputeFacts(pkgs []*Package, env *Env) {
	for round := 0; round < 16; round++ {
		changed := false
		for _, p := range pkgs {
			for _, file := range p.Files {
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, ok := p.Info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					if _, done := env.Facts.Tainted(fn); done {
						continue
					}
					res := analyzeMapOrder(p, env, fd)
					if res.retOrigin != nil {
						if env.Facts.setTainted(fn, TaintFact{Func: fn.FullName(), Origin: *res.retOrigin}) {
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}
