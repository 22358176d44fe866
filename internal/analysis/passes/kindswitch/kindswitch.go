// Package kindswitch defines an Analyzer that keeps every switch over
// fo.Report kinds either exhaustive or guarded by an error-returning
// default.
package kindswitch

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"ldpids/internal/analysis"
)

// foPath is the package that declares the Kind enum and its registry.
const foPath = "ldpids/internal/fo"

// Analyzer reports fo.Kind switches that would silently misprice or drop a
// report kind added after the switch was written.
var Analyzer = &analysis.Analyzer{
	Name: "kindswitch",
	Doc: `require switches over fo.Kind to cover every registered kind or fail loudly

The frequency-oracle registry grows: PR 1 shipped three report kinds, the
tree now has six, and a switch written against three of them compiles
clean while silently mishandling the other two (the wire encoder once
dropped KindPacked payloads exactly this way). For every switch whose tag
has type fo.Kind, this analyzer demands one of:

  - every exported Kind constant in internal/fo appears in a case; or
  - a default clause that returns a non-nil error or panics, so an
    unknown kind surfaces instead of decaying into zero values.

Switches over the wire-format strings are out of scope; decode paths must
already treat unknown strings as errors to accept logs from newer
versions.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkSwitch(pass, sw)
			return true
		})
	}
	return nil
}

func checkSwitch(pass *analysis.Pass, sw *ast.SwitchStmt) {
	named, ok := pass.TypesInfo.TypeOf(sw.Tag).(*types.Named)
	if !ok {
		return
	}
	obj := named.Obj()
	if obj.Name() != "Kind" || obj.Pkg() == nil || obj.Pkg().Path() != foPath {
		return
	}
	kinds := kindConsts(obj.Pkg(), named)

	covered := make(map[string]bool)
	var defaultBody []ast.Stmt
	hasDefault := false
	for _, clause := range sw.Body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
			defaultBody = cc.Body
			continue
		}
		for _, e := range cc.List {
			if c := constOf(pass, e); c != nil && types.Identical(c.Type(), named) {
				covered[c.Name()] = true
			}
		}
	}

	var missing []string
	for _, k := range kinds {
		if !covered[k] {
			missing = append(missing, "fo."+k)
		}
	}
	if len(missing) == 0 {
		return
	}
	switch {
	case !hasDefault:
		pass.Reportf(sw.Pos(),
			"switch on fo.Kind does not cover %s and has no default: add the cases or an error-returning default",
			strings.Join(missing, ", "))
	case !failsLoudly(pass, defaultBody):
		pass.Reportf(sw.Pos(),
			"switch on fo.Kind does not cover %s and its default neither returns an error nor panics: an unknown kind would decay into zero values",
			strings.Join(missing, ", "))
	}
}

// kindConsts returns the sorted names of the exported constants of the Kind
// type declared in fo's package scope — the registered kinds.
func kindConsts(pkg *types.Package, named *types.Named) []string {
	var out []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && c.Exported() && types.Identical(c.Type(), named) {
			out = append(out, c.Name())
		}
	}
	sort.Strings(out)
	return out
}

// constOf resolves a case expression to the constant it names, if any.
func constOf(pass *analysis.Pass, e ast.Expr) *types.Const {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := pass.TypesInfo.Uses[id].(*types.Const)
	return c
}

// failsLoudly reports whether body contains a return statement whose
// results include a (statically) non-nil error, or a panic call. Either
// guarantees an unrecognized kind cannot be processed as if it were known.
func failsLoudly(pass *analysis.Pass, body []ast.Stmt) bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	loud := false
	for _, stmt := range body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if loud {
				return false
			}
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					// `return nil` stays untyped nil here, so a default that
					// swallows the unknown kind does not count as loud.
					if t := pass.TypesInfo.TypeOf(res); t != nil && types.Implements(t, errType) {
						loud = true
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
						loud = true
					}
				}
			}
			return true
		})
		if loud {
			return true
		}
	}
	return false
}
