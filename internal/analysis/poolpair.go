package analysis

// poolpair enforces the PR 4 matrix-pooling discipline: a demand matrix
// acquired from the pool (demand.FromPool, or the pooled Clone /
// Quantize / Stuff) must either be Released or handed to another owner
// before the function returns. A matrix that is acquired, used locally
// and then simply dropped is a silent pool leak — correctness survives
// (the GC collects it) but the allocation-free frame loop it was
// pooled for does not.
//
// The check is a may-escape approximation of the flow-sensitive
// contract: a pooled local counts as handed over when it is returned,
// stored (assignment, composite literal, map/channel/slice element),
// passed as a call argument, or captured by a closure — on ANY path.
// Only a local that reaches no Release and no ownership transfer
// anywhere in the function is reported, so every finding is a real
// leak on every path.

import (
	"go/ast"
	"go/types"
)

// poolAcquirers maps the package path of the pooled-matrix vocabulary
// (matrices and ingest inboxes) to the functions and methods whose result
// the caller owns.
var poolAcquirers = map[string]map[string]bool{
	"hybridsched/internal/demand": {
		"FromPool":      true, // func FromPool(n int) *Matrix
		"InboxFromPool": true, // func InboxFromPool(n int) *Inbox
		"Clone":         true, // (*Matrix).Clone
		"Quantize":      true, // (*Matrix).Quantize
		"Stuff":         true, // (*Matrix).Stuff
	},
}

// poolReleaseName is the method that returns a matrix to the pool.
const poolReleaseName = "Release"

// PoolPair is the pool-discipline analyzer.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc: `require a Release (or an ownership hand-over) for every pooled demand-matrix acquisition

demand.FromPool and the pooled Clone/Quantize/Stuff lend the caller a
matrix from the per-size sync.Pool; dropping one on the floor defeats
the pooling that keeps per-frame scheduling allocation-free. A local
that is never Released, returned, stored, passed on, or captured is
reported at its acquisition site.`,
	Run: runPoolPair,
}

func runPoolPair(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPoolBody(pass, info, fn)
		}
	}
	return nil
}

// isPoolAcquire reports whether call's static callee is one of the
// pool-acquiring functions.
func isPoolAcquire(info *types.Info, call *ast.CallExpr) bool {
	callee := staticCallee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	names, ok := poolAcquirers[callee.Pkg().Path()]
	return ok && names[callee.Name()]
}

func checkPoolBody(pass *Pass, info *types.Info, fn *ast.FuncDecl) {
	type acquisition struct {
		call *ast.CallExpr
		obj  *types.Var // local bound to the result, nil if unbound
		id   *ast.Ident
	}
	var acqs []acquisition
	bound := map[*ast.CallExpr]bool{}

	// Pass 1: acquisitions bound to fresh or existing locals.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		stmt, ok := n.(*ast.AssignStmt)
		if !ok || len(stmt.Lhs) != len(stmt.Rhs) {
			return true
		}
		for i := range stmt.Rhs {
			call, ok := ast.Unparen(stmt.Rhs[i]).(*ast.CallExpr)
			if !ok || !isPoolAcquire(info, call) {
				continue
			}
			id, ok := stmt.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue // stored through a selector/index: handed over
			}
			var v *types.Var
			if def, ok := info.Defs[id].(*types.Var); ok {
				v = def
			} else if use, ok := info.Uses[id].(*types.Var); ok {
				if use.Parent() == nil || use.Parent() == pass.Pkg.Types.Scope() {
					continue // package-level: long-lived owner
				}
				v = use
			}
			if v != nil {
				bound[call] = true
				acqs = append(acqs, acquisition{call: call, obj: v, id: id})
			}
		}
		return true
	})

	// Unbound acquisitions: the result is consumed in place. A return
	// value or argument transfers ownership; an expression-statement
	// receiver (demand.FromPool(n).Total()) discards the matrix.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || bound[call] || !isPoolAcquire(info, call) {
			return true
		}
		if parentDiscards(fn, call) {
			pass.Reportf(call.Pos(),
				"pooled matrix from %s is discarded without Release", callSummary(call))
		}
		return true
	})

	// Pass 2: for each bound acquisition, scan every use of the local.
	for _, a := range acqs {
		released, escaped := false, false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// v.Release() or v passed as an argument.
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok &&
						info.Uses[id] == a.obj && sel.Sel.Name == poolReleaseName {
						released = true
						return true
					}
				}
				for _, arg := range n.Args {
					if usesVar(info, arg, a.obj) {
						escaped = true
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if usesVar(info, res, a.obj) {
						escaped = true
					}
				}
			case *ast.AssignStmt:
				// v on the right-hand side of any later assignment is a
				// hand-over (to a field, element, or another binding).
				for _, rhs := range n.Rhs {
					if rhs != a.call && usesVar(info, rhs, a.obj) {
						escaped = true
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if usesVar(info, elt, a.obj) {
						escaped = true
					}
				}
			case *ast.SendStmt:
				if usesVar(info, n.Value, a.obj) {
					escaped = true
				}
			case *ast.FuncLit:
				// Captured by a closure: lifetime leaves this analysis.
				captured := false
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && info.Uses[id] == a.obj {
						captured = true
					}
					return !captured
				})
				if captured {
					escaped = true
				}
				return false // don't double-count the closure's own uses
			}
			return true
		})
		if !released && !escaped {
			pass.Reportf(a.call.Pos(),
				"%s acquired from a demand pool is never Released and never handed to another owner",
				a.id.Name)
		}
	}
}

// usesVar reports whether expr mentions the variable (not as a method
// receiver of Release — plain mention is enough here, callers decide
// the context).
func usesVar(info *types.Info, expr ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == v {
			found = true
		}
		return !found
	})
	return found
}

// parentDiscards reports whether the acquiring call's result is dropped:
// used as an expression statement or only as the receiver of a chained
// method call that is itself discarded.
func parentDiscards(fn *ast.FuncDecl, call *ast.CallExpr) bool {
	discarded := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		// The statement's expression is the call itself, or a method
		// chain rooted at it.
		e := stmt.X
		for {
			if e == ast.Expr(call) {
				discarded = true
				return false
			}
			c, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == poolReleaseName {
				return true // FromPool(n).Release() — pointless but paired
			}
			e = sel.X
		}
	})
	return discarded
}

func callSummary(call *ast.CallExpr) string {
	return exprString(call.Fun)
}
