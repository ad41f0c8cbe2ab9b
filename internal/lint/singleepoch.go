package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// SingleEpochAnalyzer enforces the PR-4 serving invariant: a request is
// answered from exactly ONE engine epoch. A handler takes
// Engine.Current() once and runs the whole request against that
// detector; consulting the engine a second time (a second Current() or
// Detector(), or either inside a loop) can straddle a hot swap and mix
// epochs within one response.
func SingleEpochAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "single-epoch",
		Doc:  "a request-path function must consult the engine at most once (take Engine.Current() once)",
		Run: func(pkg *Package, cfg *Config) []Diagnostic {
			if !inScope(cfg.SingleEpochPkgs, pkg.Path) {
				return nil
			}
			var diags []Diagnostic
			eachFuncDecl(pkg, func(fd *ast.FuncDecl) {
				type site struct {
					call   *ast.CallExpr
					name   string
					inLoop bool
				}
				var sites []site
				var walk func(n ast.Node, loopDepth int)
				walk = func(n ast.Node, loopDepth int) {
					ast.Inspect(n, func(m ast.Node) bool {
						switch x := m.(type) {
						case *ast.ForStmt:
							if x.Body != nil {
								walk(x.Body, loopDepth+1)
							}
							return false
						case *ast.RangeStmt:
							if x.Body != nil {
								walk(x.Body, loopDepth+1)
							}
							return false
						case *ast.CallExpr:
							if name, ok := engineCall(pkg, x); ok {
								sites = append(sites, site{call: x, name: name, inLoop: loopDepth > 0})
							}
						}
						return true
					})
				}
				walk(fd.Body, 0)
				for i, s := range sites {
					if i == 0 && !s.inLoop {
						continue
					}
					why := fmt.Sprintf("engine consulted %d times in %s", len(sites), fd.Name.Name)
					if s.inLoop {
						why = fmt.Sprintf("engine consulted inside a loop in %s", fd.Name.Name)
					}
					diags = append(diags, Diagnostic{
						Pos:     pkg.Fset.Position(s.call.Pos()),
						Rule:    "single-epoch",
						Message: fmt.Sprintf("%s: %s can straddle a hot swap — take Engine.Current() once per request and reuse the detector", why, s.name),
					})
				}
			})
			return diags
		},
	}
}

// engineCall reports whether call is an Engine method that hands out
// query state — Current or Detector (matched by type name, so the
// facade wrapper and test fixtures are covered alongside core.Engine).
func engineCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(pkg.Info, call)
	if f == nil {
		return "", false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	_, typeName := namedPathAndName(sig.Recv().Type())
	if typeName != "Engine" {
		return "", false
	}
	switch f.Name() {
	case "Current", "Detector":
		return "Engine." + f.Name(), true
	}
	return "", false
}
