package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces the repo's context discipline (DESIGN.md "Cancellation"):
//
//   - any function taking a context.Context takes it as the first
//     parameter, so cancellation is visibly threaded and call sites stay
//     uniform;
//   - library packages never mint their own root context: calls to
//     context.Background or context.TODO are confined to package main.
//     Two shapes are exempt — the nil-guard
//     `if ctx == nil { ctx = context.Background() }` that keeps exported
//     entry points total, and the one-line convenience bridge
//     `func (s T) X(...) { return s.XCtx(context.Background(), ...) }`
//     whose body delegates to its own Ctx variant;
//   - worklist loops in the core search kernels (unbounded `for {` /
//     `for !q.Empty()` / `for len(q) > 0` loops) must poll cancellation via
//     checkCtx or ctx.Err/ctx.Done, or a hostile query outlives its
//     deadline.
var CtxFlow = &Analyzer{
	Name: "ctx-flow",
	Doc:  "context first param, no Background/TODO outside main, worklist loops poll cancellation",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	isMain := pass.Pkg.Types.Name() == "main"
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				checkCtxParamPosition(pass, fd)
			}
		}
		for _, unit := range funcUnits(file) {
			if !isMain {
				checkNoRootContext(pass, unit)
			}
			if pass.Pkg.Path == "kor/internal/core" {
				checkWorklistLoops(pass, unit)
			}
		}
	}
}

// isContextType reports whether the expression's type is context.Context.
func isContextType(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCtxParamPosition flags a context.Context parameter that is not the
// first parameter. Methods count their receiver separately, per convention.
func checkCtxParamPosition(pass *Pass, fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContextType(pass.Pkg.Info, field.Type) && idx != 0 {
			pass.Reportf(field.Pos(),
				"%s takes context.Context as parameter %d; context is always the first parameter", fd.Name.Name, idx+1)
		}
		idx += n
	}
}

// isRootContextCall reports a call to context.Background or context.TODO.
func isRootContextCall(pass *Pass, call *ast.CallExpr) bool {
	obj := calleeObj(pass.Pkg.Info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return false
	}
	return obj.Name() == "Background" || obj.Name() == "TODO"
}

// checkNoRootContext flags context.Background/TODO in library code, minus
// the two sanctioned shapes.
func checkNoRootContext(pass *Pass, unit FuncUnit) {
	if isCtxBridge(unit) {
		return
	}
	// Pre-pass: collect Background calls inside the nil-guard idiom
	// `if ctx == nil { ctx = context.Background() }`.
	guarded := make(map[*ast.CallExpr]bool)
	inspectUnit(unit.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op.String() != "==" {
			return true
		}
		xNil := isNilIdent(cond.X) || isNilIdent(cond.Y)
		if !xNil || len(ifs.Body.List) != 1 {
			return true
		}
		assign, ok := ifs.Body.List[0].(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		if call, ok := assign.Rhs[0].(*ast.CallExpr); ok && isRootContextCall(pass, call) {
			guarded[call] = true
		}
		return true
	})
	inspectUnit(unit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || guarded[call] || !isRootContextCall(pass, call) {
			return true
		}
		pass.Reportf(call.Pos(),
			"%s mints a root context in a library package; thread the caller's ctx instead (nil-guards and Ctx bridges are exempt)", unit.Name)
		return true
	})
}

// isCtxBridge recognizes the sanctioned context-free convenience wrapper:
// a declared function X whose entire body is
// `return recv.XCtx(context.Background(), ...)`. The Background root is the
// bridge's whole point; cancellation-aware callers use the Ctx variant.
func isCtxBridge(unit FuncUnit) bool {
	if unit.Decl == nil || len(unit.Body.List) != 1 {
		return false
	}
	ret, ok := unit.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || calleeName(call) != unit.Name+"Ctx" {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	return ok && calleeName(first) == "Background"
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isWorklistLoop recognizes the shapes of an unbounded work-consuming loop:
// a bare `for {`, a `for !q.Empty()`-style condition, or a condition
// comparing len(...)/x.Len() against the literal 0.
func isWorklistLoop(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return true
	}
	matched := false
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			switch calleeName(e) {
			case "Empty":
				matched = true
			}
		case *ast.BinaryExpr:
			if isLenCall(e.X) && isZeroLit(e.Y) || isLenCall(e.Y) && isZeroLit(e.X) {
				matched = true
			}
		}
		return !matched
	})
	return matched
}

func isLenCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	name := calleeName(call)
	return name == "len" || name == "Len"
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// pollsCancellation reports whether the loop body contains a cancellation
// probe: a checkCtx call, ctx.Err, or ctx.Done.
func pollsCancellation(body *ast.BlockStmt) bool {
	polls := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch calleeName(call) {
		case "checkCtx", "Err", "Done":
			polls = true
			return false
		}
		return true
	})
	return polls
}

// checkWorklistLoops flags unbounded loops in the search kernels that never
// poll cancellation.
func checkWorklistLoops(pass *Pass, unit FuncUnit) {
	inspectUnit(unit.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || !isWorklistLoop(loop) {
			return true
		}
		if !pollsCancellation(loop.Body) {
			pass.Reportf(loop.Pos(),
				"worklist loop in %s never polls cancellation; call p.checkCtx() (or ctx.Err) inside the loop", unit.Name)
		}
		return true
	})
}
