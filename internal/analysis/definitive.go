package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// DefinitiveOutcome protects the result layer (DESIGN.md "Result layer"): a
// result may only be stored or handed to single-flight followers when
// definitiveOutcome(err) said so. Storing a budget-truncated or
// context-cancelled response would replay a transient failure to every later
// caller with the same key.
//
// The layer has one write path, the publish method of package kor's results
// type, which stores its outcome and releases the followers with it as
// definitive exactly when its definitive argument (the last) is true. So
// every publish call whose definitive argument is not the constant false
// must sit inside the then-branch of an if whose condition is
// definitiveOutcome(...) (possibly &&-conjoined with more checks).
// Non-definitive publishes — publish(..., false) on error and cleanup
// paths — are exempt.
var DefinitiveOutcome = &Analyzer{
	Name: "definitive-outcome",
	Doc:  "definitive result publishes must be dominated by a definitiveOutcome check",
	Run:  runDefinitiveOutcome,
}

func runDefinitiveOutcome(pass *Pass) {
	if pass.Pkg.Path != "kor" {
		return
	}
	for _, file := range pass.Pkg.Files {
		parents := pass.Parents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isDefinitivePublish(pass, call) && !dominatedByDefinitive(parents, call) {
				pass.Reportf(call.Pos(),
					"results.publish shares a result as definitive without a dominating definitiveOutcome(err) check; transient failures must not be cached or broadcast as definitive")
			}
			return true
		})
	}
}

// isDefinitivePublish reports a call to the results type's publish method
// whose definitive argument (the last) is not the constant false.
func isDefinitivePublish(pass *Pass, call *ast.CallExpr) bool {
	fn, ok := calleeObj(pass.Pkg.Info, call).(*types.Func)
	if !ok || fn.Name() != "publish" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); !ok || n.Obj().Name() != "results" {
		return false
	}
	return len(call.Args) == 0 || !isConstFalse(pass, call.Args[len(call.Args)-1])
}

func isConstFalse(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false
	}
	return !constant.BoolVal(tv.Value)
}

// dominatedByDefinitive walks outward from the call looking for an
// enclosing if whose then-branch contains the call and whose condition
// includes a definitiveOutcome(...) conjunct.
func dominatedByDefinitive(parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	var prev ast.Node = call
	for n := parents[call]; n != nil; n = parents[n] {
		if fl, ok := n.(*ast.FuncLit); ok {
			_ = fl
			return false // the closure is its own dominance scope
		}
		if _, ok := n.(*ast.FuncDecl); ok {
			return false
		}
		if ifs, ok := n.(*ast.IfStmt); ok {
			if prev == ifs.Body && condHasDefinitive(ifs.Cond) {
				return true
			}
		}
		prev = n
	}
	return false
}

// condHasDefinitive reports whether cond is definitiveOutcome(...) or an
// && conjunction containing it (un-negated).
func condHasDefinitive(cond ast.Expr) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.CallExpr:
		return calleeName(e) == "definitiveOutcome"
	case *ast.BinaryExpr:
		if e.Op.String() == "&&" {
			return condHasDefinitive(e.X) || condHasDefinitive(e.Y)
		}
	}
	return false
}
