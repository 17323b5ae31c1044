// Package kor is the definitive-outcome golden fixture: result-layer
// publishes with and without the dominating check.
package kor

import "errors"

var errTransient = errors.New("transient")

// results mirrors the engine's result layer: publish stores its value and
// releases the followers, as definitive when the last argument says so.
type results struct{ m map[string]int }

func (r *results) publish(key string, v int, err error, definitive bool) {
	if definitive {
		r.m[key] = v
	}
}

// lead publishes from inside the component, as the real leader path does.
func (r *results) lead(key string, v int, err error) {
	if definitiveOutcome(err) {
		r.publish(key, v, err, true)
	} else {
		r.publish(key, 0, err, false)
	}
}

// bus has a publish method too, but it is not the result layer.
type bus struct{}

func (bus) publish(key string, v int, err error, definitive bool) {}

type Engine struct {
	results *results
	events  bus
}

func definitiveOutcome(err error) bool {
	return err == nil || !errors.Is(err, errTransient)
}

// GoodGuarded publishes as definitive only under the definitiveOutcome check.
func (e *Engine) GoodGuarded(key string, v int, err error) {
	if definitiveOutcome(err) {
		e.results.publish(key, v, err, true)
	} else {
		e.results.publish(key, 0, err, false)
	}
}

// GoodConjunct allows extra conjuncts alongside the check.
func (e *Engine) GoodConjunct(key string, v int, err error) {
	if definitiveOutcome(err) && v > 0 {
		e.results.publish(key, v, err, true)
	}
}

// GoodNonDefinitive may publish a non-definitive result anywhere.
func (e *Engine) GoodNonDefinitive(key string, err error) {
	e.results.publish(key, 0, err, false)
}

// GoodOtherType is not a result-layer publish.
func (e *Engine) GoodOtherType(key string, v int, err error) {
	e.events.publish(key, v, err, true)
}

// BadUnguarded publishes as definitive without any check.
func (e *Engine) BadUnguarded(key string, v int, err error) {
	e.results.publish(key, v, err, true)
}

// BadComputedFlag lets a computed flag stand in for the check.
func (e *Engine) BadComputedFlag(key string, v int, err error) {
	ok := err == nil
	e.results.publish(key, v, err, ok)
}

// BadElsePublish broadcasts as definitive on the non-definitive branch.
func (e *Engine) BadElsePublish(key string, v int, err error) {
	if definitiveOutcome(err) {
		e.results.publish(key, v, err, true)
	} else {
		e.results.publish(key, v, err, true)
	}
}

// BadInClosure: a closure is its own dominance scope.
func (e *Engine) BadInClosure(key string, v int, err error) {
	if definitiveOutcome(err) {
		func() { e.results.publish(key, v, err, true) }()
	}
}
