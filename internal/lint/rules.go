package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// isFloat reports whether the expression's resolved type is a floating-
// point kind (unresolved types report false — no false positives on
// partial type information).
func isFloat(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isZeroConst reports whether the expression is a compile-time constant
// with exact value zero (comparisons against exact 0 are idiomatic
// sentinel checks in this codebase and never suffer rounding).
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// constValue returns the expression's constant value, if any.
func constValue(info *types.Info, e ast.Expr) constant.Value {
	if tv, ok := info.Types[e]; ok {
		return tv.Value
	}
	return nil
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil (built-ins, conversions, function-typed variables, unresolved).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isMathCall reports whether the call invokes math.<name>.
func isMathCall(info *types.Info, e ast.Expr, name string) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math" && fn.Name() == name
}

// --- float-eq ---------------------------------------------------------------

// floatEqRule flags ==/!= between floating-point expressions. Exact
// comparisons against the constant 0 (zero-sentinel checks behind guards)
// and against math.Inf(...) (infinities compare exactly) are exempt; any
// other float equality is a rounding hazard — use a tolerance or
// math.IsNaN/math.IsInf.
type floatEqRule struct{}

func (floatEqRule) ID() string { return "float-eq" }

func (floatEqRule) Check(p *Package, env *Env) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(p.Info, be.X) && !isFloat(p.Info, be.Y) {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				if isZeroConst(p.Info, side) || isMathCall(p.Info, side, "Inf") {
					return true
				}
			}
			out = append(out, Finding{
				Rule: "float-eq",
				Pos:  p.Fset.Position(be.OpPos),
				Msg: fmt.Sprintf("floating-point %s comparison; use a tolerance or math.IsNaN/math.IsInf",
					be.Op),
			})
			return true
		})
	}
	return out
}

// --- nan-guard --------------------------------------------------------------

// nanGuardRule flags floating-point divisions whose denominator is a bare
// variable (identifier, selector or index expression — after stripping
// parentheses and numeric conversions) that is never examined by any
// comparison in the enclosing function. Such divisions silently propagate
// NaN/Inf through the numeric pipeline when the denominator is zero.
//
// A denominator is considered guarded when its expression — or, for a
// local variable, the expression it was assigned from — appears inside
// any comparison in the same function (`if n == 0 { return 0 }` before
// `x / n` is a guard; so is a loop bound or a tolerance check).
// Denominators that are non-zero constants, calls, or compound arithmetic
// are skipped: they encode domain knowledge a syntactic pass cannot
// judge. Division by a constant zero is always an error.
type nanGuardRule struct{}

func (nanGuardRule) ID() string { return "nan-guard" }

func (nanGuardRule) Check(p *Package, env *Env) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, checkFuncDivisions(p, fd)...)
		}
	}
	return out
}

// unwrap strips parentheses and numeric type conversions:
// (float64(m.N)) → m.N.
func unwrap(info *types.Info, e ast.Expr) ast.Expr {
	for {
		e = ast.Unparen(e)
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return e
		}
		tv, ok := info.Types[call.Fun]
		if !ok || !tv.IsType() {
			return e
		}
		e = call.Args[0]
	}
}

// exprKey renders an expression canonically for guard matching.
func exprKey(e ast.Expr) string { return types.ExprString(e) }

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

func checkFuncDivisions(p *Package, fd *ast.FuncDecl) []Finding {
	info := p.Info

	// Pass 1: collect guard keys (every subexpression of every comparison
	// operand) and one-step aliases (x := expr records x → key(expr), so a
	// guard on a.N covers na := float64(a.N)).
	guarded := map[string]bool{}
	alias := map[string]string{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if isComparison(n.Op) {
				for _, side := range []ast.Expr{n.X, n.Y} {
					ast.Inspect(side, func(sub ast.Node) bool {
						if e, ok := sub.(ast.Expr); ok {
							switch e.(type) {
							case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.CallExpr:
								guarded[exprKey(e)] = true
							}
						}
						return true
					})
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						alias[id.Name] = exprKey(unwrap(info, n.Rhs[i]))
					}
				}
			}
		case *ast.SwitchStmt:
			// `switch { case x == 0: … }` guards too: case clauses are
			// comparisons and are covered by the BinaryExpr walk above.
		}
		return true
	})

	isGuarded := func(den ast.Expr) bool {
		key := exprKey(den)
		if guarded[key] {
			return true
		}
		if a, ok := alias[key]; ok && guarded[a] {
			return true
		}
		return false
	}

	// Pass 2: examine divisions.
	var out []Finding
	report := func(pos token.Pos, den ast.Expr) {
		v := constValue(info, den)
		if v != nil {
			if (v.Kind() == constant.Int || v.Kind() == constant.Float) && constant.Sign(v) == 0 {
				out = append(out, Finding{
					Rule: "nan-guard",
					Pos:  p.Fset.Position(pos),
					Msg:  "division by constant zero",
				})
			}
			return // non-zero constant denominator is always safe
		}
		bare := unwrap(info, den)
		switch bare.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr:
		default:
			return // compound denominators encode domain knowledge
		}
		if isGuarded(bare) || isGuarded(den) {
			return
		}
		out = append(out, Finding{
			Rule: "nan-guard",
			Pos:  p.Fset.Position(pos),
			Msg: fmt.Sprintf("float division by %q has no zero/NaN guard in this function",
				exprKey(bare)),
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.QUO && (isFloat(info, n.X) || isFloat(info, n.Y)) {
				report(n.OpPos, n.Y)
			}
		case *ast.AssignStmt:
			if n.Tok == token.QUO_ASSIGN && len(n.Lhs) == 1 && isFloat(info, n.Lhs[0]) {
				report(n.TokPos, n.Rhs[0])
			}
		}
		return true
	})
	return out
}

// --- err-drop ---------------------------------------------------------------

// errDropRule flags statement-position calls whose error result is
// silently discarded. Deliberate discards (`_ = f()`), defers, and a
// small allowlist of conventionally best-effort calls (the fmt print
// family, strings.Builder / bytes.Buffer writers, Close, and
// tabwriter.Flush) are exempt.
type errDropRule struct{}

func (errDropRule) ID() string { return "err-drop" }

var errorType = types.Universe.Lookup("error").Type()

func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// errDropAllowed exempts calls whose dropped error is conventional.
func errDropAllowed(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false // function values get no exemption
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return true
	}
	if fn.Name() == "Close" {
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case pkg == "strings" && name == "Builder":
		return true
	case pkg == "bytes" && name == "Buffer":
		return true
	case pkg == "math/rand" && name == "Rand" && fn.Name() == "Read":
		return true // documented to always return a nil error
	case pkg == "text/tabwriter" && name == "Writer" && fn.Name() == "Flush":
		return true
	}
	return false
}

func (errDropRule) Check(p *Package, env *Env) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(p.Info, call) {
				return true
			}
			if errDropAllowed(p.Info, call) {
				return true
			}
			fn := calleeFunc(p.Info, call)
			name := "call"
			if fn != nil {
				name = fn.Name()
			}
			out = append(out, Finding{
				Rule: "err-drop",
				Pos:  p.Fset.Position(call.Lparen),
				Msg:  fmt.Sprintf("error returned by %s is dropped; handle it or assign to _", name),
			})
			return true
		})
	}
	return out
}
