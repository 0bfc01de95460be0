package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// mapOrderRule polices the repo's byte-identity contract at its weakest
// point: Go map iteration order is randomized, so any map range whose
// element order reaches serialized output — DOT, JSON, gob, provenance
// NDJSON, a hash, a strings.Builder — produces byte-flaky artifacts.
// Three shapes are reported:
//
//  1. a per-iteration emission inside a map range (fmt.Fprintf, Write*,
//     Encoder.Encode — order committed as it happens);
//  2. a slice built by ranging a map (or returned by a function with a
//     map-order fact, across packages) serialized without an
//     intervening sort — sort.*/slices.Sort* between build and write
//     clears the hazard;
//  3. a value whose type contains a map passed to gob.Encoder.Encode:
//     gob serializes maps in randomized key order (encoding/json sorts
//     keys and is exempt). This is the exact shape of the PR 2
//     psm.Save Initials bug.
type mapOrderRule struct{}

func (mapOrderRule) ID() string { return "map-order" }

func (mapOrderRule) Check(p *Package, env *Env) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, analyzeMapOrder(p, env, fd).findings...)
		}
		out = append(out, checkGobMapEncodes(p, f)...)
	}
	return out
}

// checkGobMapEncodes flags gob.Encoder.Encode calls whose argument type
// contains a map anywhere in its structure: gob writes map entries in
// randomized iteration order, so such encodes are never byte-stable.
func checkGobMapEncodes(p *Package, f *ast.File) []Finding {
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Name() != "Encode" || len(call.Args) != 1 {
			return true
		}
		pkgPath, typeName, ok := recvNamed(fn)
		if !ok || pkgPath != "encoding/gob" || typeName != "Encoder" {
			return true
		}
		t := p.Info.TypeOf(call.Args[0])
		if t == nil {
			return true
		}
		if path, found := findMapInType(t, nil, 0); found {
			out = append(out, Finding{
				Rule: "map-order",
				Pos:  p.Fset.Position(call.Lparen),
				Msg: fmt.Sprintf("gob-encodes %s, which contains a map (%s); gob serializes maps in randomized key order — encode a sorted pair slice instead",
					types.TypeString(t, types.RelativeTo(p.Types)), path),
			})
		}
		return true
	})
	return out
}

// findMapInType walks a type's structure looking for a map, returning a
// human-readable path to the first one found. Named types are tracked
// in seen to terminate on recursive structures; depth is capped so
// pathological graphs stay cheap.
func findMapInType(t types.Type, seen map[*types.Named]bool, depth int) (string, bool) {
	if depth > 8 {
		return "", false
	}
	switch t := t.(type) {
	case *types.Map:
		return t.String(), true
	case *types.Pointer:
		return findMapInType(t.Elem(), seen, depth+1)
	case *types.Slice:
		return findMapInType(t.Elem(), seen, depth+1)
	case *types.Array:
		return findMapInType(t.Elem(), seen, depth+1)
	case *types.Named:
		if seen[t] {
			return "", false
		}
		if seen == nil {
			seen = map[*types.Named]bool{}
		}
		seen[t] = true
		if path, ok := findMapInType(t.Underlying(), seen, depth+1); ok {
			return fmt.Sprintf("%s: %s", t.Obj().Name(), path), true
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if path, ok := findMapInType(f.Type(), seen, depth+1); ok {
				return fmt.Sprintf("field %s: %s", f.Name(), path), true
			}
		}
	}
	return "", false
}
