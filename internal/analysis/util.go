package analysis

import (
	"go/ast"
	"go/types"
)

// FuncUnit is one function body analyzed in isolation: a declared function
// or a function literal. Closures are separate units — a rule counting
// "per function" events must not conflate a method with the callbacks it
// builds.
type FuncUnit struct {
	// Decl is set for a declared function, Lit for a literal; exactly one
	// is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	// Name is the declared name, or "func literal".
	Name string
	Body *ast.BlockStmt
}

// funcUnits returns every function body in file: all declarations plus all
// literals, each as its own unit.
func funcUnits(file *ast.File) []FuncUnit {
	var units []FuncUnit
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		units = append(units, FuncUnit{Decl: fd, Name: fd.Name.Name, Body: fd.Body})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			units = append(units, FuncUnit{Lit: lit, Name: "func literal", Body: lit.Body})
		}
		return true
	})
	return units
}

// inspectUnit walks the unit's body without descending into nested function
// literals: what happens in a closure is that closure's own unit.
func inspectUnit(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// errorIface is the universe error interface, for Implements checks.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isSentinelError reports whether obj is a package-level error variable — a
// sentinel in the errors.Is sense, like ErrNoRoute or io.EOF.
func isSentinelError(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return false
	}
	return types.Implements(v.Type(), errorIface)
}

// selectedField returns the field a selector expression reads, or nil when
// it is not a field selection.
func selectedField(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	if f, ok := s.Obj().(*types.Var); ok {
		return f
	}
	return nil
}

// namedTypeName returns the bare name of an expression's (pointer-stripped)
// named type, or "".
func namedTypeName(info *types.Info, e ast.Expr) string {
	t := info.Types[e].Type
	if t == nil {
		return ""
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// calleeObj resolves the object a call expression invokes: a plain function
// ident, a method or package-qualified selector. Nil for indirect calls.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeName returns the bare name of the invoked function or method, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// fullFuncName renders obj as pkgpath.Name or pkgpath.(Recv).Name for
// messages.
func fullFuncName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		return f.FullName()
	}
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}
