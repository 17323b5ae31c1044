// Package kor is the ctx-flow golden fixture: parameter position, root
// contexts in library code, and the two sanctioned escape hatches.
package kor

import "context"

// Good threads ctx first.
func Good(ctx context.Context, q int) error {
	return ctx.Err()
}

// CtxSecond takes ctx in the wrong position.
func CtxSecond(q int, ctx context.Context) error {
	return ctx.Err()
}

// MintsRoot fabricates a root context in library code.
func MintsRoot(q int) error {
	ctx := context.Background()
	return ctx.Err()
}

// NilGuard uses the sanctioned totality guard.
func NilGuard(ctx context.Context, q int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx.Err()
}

// Old is frozen pre-context API. A Deprecated: marker does not exempt it.
//
// Deprecated: use Good.
func Old(q int) error {
	return Good(context.Background(), q)
}

type Runner struct{}

// RunCtx is the cancellation-aware entry point.
func (r Runner) RunCtx(ctx context.Context, q int) error { return ctx.Err() }

// Run is the sanctioned convenience bridge to RunCtx.
func (r Runner) Run(q int) error {
	return r.RunCtx(context.Background(), q)
}
