// Package epsbudget defines an Analyzer that forces privacy budgets
// through validated constructors.
package epsbudget

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ldpids/internal/analysis"
)

// Analyzer reports config-struct constructions and mutations that bypass
// ε validation.
var Analyzer = &analysis.Analyzer{
	Name: "epsbudget",
	Doc: `route every privacy budget through a validated constructor

Each mechanism/oracle constructor validates its ε, window, and population
before anything is perturbed; a config object built or mutated around the
constructor can carry ε <= 0 (no privacy at all, or a division by zero
deep in the estimator) without tripping a check. Outside the defining
packages (internal/fo, mechanism, cdp) this analyzer reports:

  - composite literals of types implementing fo.Oracle — oracle state
    (probabilities p and q, hash ranges) is derived from the domain in
    fo.New*, never assembled by hand;
  - composite literals of config structs with an Eps field that do not
    flow into a New* constructor call, directly or via a local variable
    in the same function;
  - assignments to a config struct's Eps field after construction.

Test files are never analyzed, so tests may build fixtures freely.`,
	Run: run,
}

// configPkgs declare the validated config structs and their constructors.
var configPkgs = map[string]bool{
	"ldpids/internal/fo":        true,
	"ldpids/internal/mechanism": true,
	"ldpids/internal/cdp":       true,
}

func run(pass *analysis.Pass) error {
	if configPkgs[pass.Pkg.Path()] {
		// The defining package owns its invariants and constructs freely.
		return nil
	}
	analysis.WithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			checkLit(pass, n, stack)
		case *ast.AssignStmt:
			checkEpsWrite(pass, n)
		}
		return true
	})
	return nil
}

func checkLit(pass *analysis.Pass, lit *ast.CompositeLit, stack []ast.Node) {
	named, ok := pass.TypesInfo.TypeOf(lit).(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !configPkgs[obj.Pkg().Path()] {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	if implementsOracle(named) {
		pass.Reportf(lit.Pos(),
			"composite literal of oracle type %s.%s: construct oracles with fo.New so p, q, and hash ranges are derived from the domain",
			obj.Pkg().Name(), obj.Name())
		return
	}
	if !hasEpsField(st) {
		return
	}
	if !flowsToConstructor(pass, stack) {
		pass.Reportf(lit.Pos(),
			"%s.%s carries a privacy budget but does not reach a New* constructor: ε validation never runs",
			obj.Pkg().Name(), obj.Name())
	}
}

// checkEpsWrite reports assignments to a config struct's Eps field: after
// construction the budget is sealed.
func checkEpsWrite(pass *analysis.Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Eps" {
			continue
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || !s.Obj().(*types.Var).IsField() {
			continue
		}
		if pkg := s.Obj().Pkg(); pkg != nil && configPkgs[pkg.Path()] {
			pass.Reportf(lhs.Pos(),
				"assigning %s.Eps after construction bypasses ε validation: build a fresh config and reconstruct", s.Obj().Pkg().Name())
		}
	}
}

func hasEpsField(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == "Eps" {
			return true
		}
	}
	return false
}

// implementsOracle reports whether T or *T satisfies fo.Oracle. The
// interface is looked up through T's own package (or its imports), so the
// check works on export data without loading fo from source.
func implementsOracle(named *types.Named) bool {
	foPkg := named.Obj().Pkg()
	if foPkg.Path() != "ldpids/internal/fo" {
		foPkg = nil
		for _, imp := range named.Obj().Pkg().Imports() {
			if imp.Path() == "ldpids/internal/fo" {
				foPkg = imp
				break
			}
		}
		if foPkg == nil {
			return false
		}
	}
	o := foPkg.Scope().Lookup("Oracle")
	if o == nil {
		return false
	}
	iface, ok := o.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

// flowsToConstructor reports whether the composite literal at the top of
// stack is consumed by a New* call: directly as an argument (possibly
// through & or parens), or by being bound to a local variable that is later
// passed to a New* call inside the same function.
func flowsToConstructor(pass *analysis.Pass, stack []ast.Node) bool {
	i := len(stack) - 1
	for i > 0 {
		switch parent := stack[i-1].(type) {
		case *ast.UnaryExpr:
			if parent.Op != token.AND {
				return false
			}
			i--
		case *ast.ParenExpr:
			i--
		case *ast.CallExpr:
			for _, a := range parent.Args {
				if a == stack[i] {
					return isNewCall(pass, parent)
				}
			}
			return false
		case *ast.AssignStmt:
			obj := boundVar(pass, parent.Lhs, parent.Rhs, stack[i].(ast.Expr))
			return obj != nil && varReachesNew(pass, stack, obj)
		case *ast.ValueSpec:
			obj := boundVar(pass, identExprs(parent.Names), parent.Values, stack[i].(ast.Expr))
			return obj != nil && varReachesNew(pass, stack, obj)
		default:
			return false
		}
	}
	return false
}

func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// boundVar resolves which variable a parallel assignment binds rhs to.
func boundVar(pass *analysis.Pass, lhs, rhs []ast.Expr, target ast.Expr) types.Object {
	if len(lhs) != len(rhs) {
		return nil
	}
	for i, r := range rhs {
		if r != target {
			continue
		}
		id, ok := lhs[i].(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Uses[id]
	}
	return nil
}

// varReachesNew scans the innermost enclosing function for a New* call
// taking obj (or &obj) as an argument.
func varReachesNew(pass *analysis.Pass, stack []ast.Node, obj types.Object) bool {
	var body *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body != nil {
			break
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isNewCall(pass, call) {
			return true
		}
		for _, a := range call.Args {
			if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
				a = u.X
			}
			if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// isNewCall reports whether call's callee is a function whose name starts
// with "New" (fo.New, mechanism.New, ldpids.NewMechanism, ...).
func isNewCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	var id *ast.Ident
	switch fun := fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	return ok && strings.HasPrefix(fn.Name(), "New")
}
