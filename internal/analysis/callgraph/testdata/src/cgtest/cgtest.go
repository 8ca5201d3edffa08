// Package cgtest is the unit fixture for callgraph: one of each edge
// kind, literal nesting, and the freshness summary shapes.
package cgtest

type doer interface{ Do() }

type A struct{}

func (A) Do() {}

type B struct{}

func (*B) Do() {}

// call dispatches through the interface: Interface edges to every
// in-package implementation.
func call(d doer) { d.Do() }

func helper() {}

func use(fn func()) { fn() }

func run() {
	f := func() {} // FuncValue edge from the f() call below
	f()
	helper()                 // Static edge
	go func() { helper() }() // immediately-invoked literal: Static edge to the lit
	use(helper)              // Escape edge (helper's address flows away)
}

type T struct{ n int }

// newT is a leaf constructor: fresh.
func newT() *T { return &T{} }

// wrap returns another fresh function's result: fresh by fixpoint.
func wrap() *T { return newT() }

// identity returns its parameter: not fresh.
func identity(t *T) *T { return t }

// box is generic: calls of its instantiations' methods, and of an
// instantiated function, inferred or explicit, are Static edges to the
// declarations, and an instantiated method value escapes.
type box[V any] struct{ v V }

func (b *box[V]) set(v V) { b.v = v }

func (b *box[V]) reset() {
	var zero V
	b.set(zero)
}

func first[V any](vs []V) V { return vs[0] }

func generic() {
	var b box[int]
	b.set(first([]int{1}))
	b.reset()
	_ = first[string]([]string{"x"})
	use(b.reset)
}
