package lint

import (
	"go/ast"
	"go/types"
)

// FragFresh enforces the fragment-boundary rule (CONTRACT.md "The
// fragment-boundary rule"): everything handed to an exchange as a
// fragment is exclusively owned by its worker — predicates carry
// evaluation scratch, fused kernels carry register banks, and the
// coordinator's Ctx is per-process — so each fragment must construct its
// own instances. Sharing one Pred or FusedExpr across fragment indices
// is a data race in real engines and nondeterminism here.
//
// Two shapes are flagged:
//
//  1. A fragment factory (any func literal returning exec.Operator, the
//     shape of the wrap closures handed to exec.Fragments.Map) that
//     captures a Pred, *FusedExpr, or *exec.Ctx declared outside the
//     literal: the factory runs once per fragment, so the capture is
//     shared across all of them. Fresh construction inside the literal
//     is the fix.
//  2. A loop that fills a []exec.Operator (frags[i] = ... / frags =
//     append(frags, ...)) passing a Pred or *FusedExpr constructed
//     outside the loop into each element.
var FragFresh = &Analyzer{
	Name: "fragfresh",
	Doc:  "fragment factories and fragment-array loops must construct per-fragment Pred/kernel/Ctx state fresh, not capture shared instances",
	Run:  runFragFresh,
}

func runFragFresh(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.FuncLit:
				checkFactoryCaptures(pass, e)
			case *ast.ForStmt:
				checkFragmentLoop(pass, e, e.Body)
			case *ast.RangeStmt:
				checkFragmentLoop(pass, e, e.Body)
			}
			return true
		})
	}
	return nil
}

// isSharedFragState reports whether t is per-fragment state that must
// not be shared: a predicate, a fused kernel, or the executor context.
// The description names the offending kind.
func isSharedFragState(t types.Type) (string, bool) {
	switch {
	case namedType(t, pkgExec, "Pred"):
		return "Pred", true
	case namedType(t, pkgExec, "FusedExpr"):
		return "fused kernel", true
	case namedType(t, pkgExec, "Ctx"):
		return "Ctx", true
	}
	return "", false
}

// returnsOperator reports whether the literal's signature produces an
// exec.Operator — the fragment-factory shape.
func returnsOperator(pass *Pass, lit *ast.FuncLit) bool {
	sig, ok := pass.TypeOf(lit).(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if namedType(sig.Results().At(i).Type(), pkgExec, "Operator") {
			return true
		}
	}
	return false
}

// checkFactoryCaptures flags free variables of banned types referenced
// inside a fragment-factory literal.
func checkFactoryCaptures(pass *Pass, lit *ast.FuncLit) {
	if !returnsOperator(pass, lit) {
		return
	}
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || reported[v] || !declaredOutside(v, lit) {
			return true
		}
		if kind, bad := isSharedFragState(v.Type()); bad {
			reported[v] = true
			pass.Reportf(id.Pos(), "fragment factory captures shared %s %q; construct a fresh instance inside the per-fragment closure (fragment-boundary rule)", kind, v.Name())
		}
		return true
	})
}

// checkFragmentLoop flags loops that build a fragment array while
// passing the same Pred/kernel instance (declared outside the loop) to
// every element.
func checkFragmentLoop(pass *Pass, loop ast.Node, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			if !isOperatorSliceTarget(pass, lhs, as.Rhs[i]) {
				continue
			}
			for _, arg := range fragConstructorArgs(as.Rhs[i]) {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := pass.Info.Uses[id].(*types.Var)
				if !ok || v.IsField() || !declaredOutside(v, loop) {
					continue
				}
				if kind, bad := isSharedFragState(v.Type()); bad {
					pass.Reportf(id.Pos(), "fragment loop shares one %s %q across fragments; construct it inside the loop body (fragment-boundary rule)", kind, v.Name())
				}
			}
		}
		return true
	})
}

// isOperatorSliceTarget reports whether the assignment fills an element
// of (or appends to) a []exec.Operator.
func isOperatorSliceTarget(pass *Pass, lhs, rhs ast.Expr) bool {
	isOpSlice := func(e ast.Expr) bool {
		t := pass.TypeOf(e)
		if t == nil {
			return false
		}
		sl, ok := t.Underlying().(*types.Slice)
		return ok && namedType(sl.Elem(), pkgExec, "Operator")
	}
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isOpSlice(ix.X) {
		return true
	}
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" &&
			isBuiltin(pass.Info, id) && len(call.Args) > 0 && isOpSlice(call.Args[0]) {
			return true
		}
	}
	return false
}

// fragConstructorArgs collects the argument expressions of the
// constructor call(s) on the right-hand side, looking through append and
// nested constructor calls one level deep.
func fragConstructorArgs(rhs ast.Expr) []ast.Expr {
	var out []ast.Expr
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	args := call.Args
	if id, isAppend := ast.Unparen(call.Fun).(*ast.Ident); isAppend && id.Name == "append" && len(args) > 1 {
		args = args[1:]
	}
	for _, a := range args {
		if inner, ok := ast.Unparen(a).(*ast.CallExpr); ok {
			out = append(out, inner.Args...)
			continue
		}
		if cl, ok := ast.Unparen(a).(*ast.CompositeLit); ok {
			for _, el := range cl.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					out = append(out, kv.Value)
				} else {
					out = append(out, el)
				}
			}
			continue
		}
		out = append(out, a)
	}
	return out
}
