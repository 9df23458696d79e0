// Package lib holds exported code the program uses in every way the
// analyzer must recognize.
package lib

import "errors"

// Used is called from another package's non-test file.
func Used() int { return 1 }

// Map is generic; another package instantiates it.
func Map[E, F any](xs []E, f func(E) F) []F {
	out := make([]F, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Box is a generic type; another package calls a method of Box[int].
type Box[T any] struct{ v T }

// Get is called only on an instantiation.
func (b Box[T]) Get() T { return b.v }

// Meter is used only through method values and interfaces.
type Meter struct{ n int }

// Read is taken as a method value, never called directly.
func (m *Meter) Read() int { return m.n }

// Area satisfies Shape, an interface the program names.
func (m *Meter) Area() float64 { return float64(m.n) }

// String, Error and Unwrap are found dynamically by fmt and errors.
func (m *Meter) String() string { return "meter" }

// Fault is an error type with a cause.
type Fault struct{ cause error }

// Error implements error.
func (f Fault) Error() string { return "fault: " + f.cause.Error() }

// Unwrap exposes the cause to errors.Is.
func (f Fault) Unwrap() error { return f.cause }

// NewFault wraps a fixed cause.
func NewFault() error { return Fault{cause: errors.New("x")} }

// Queue implements heap.Interface; only container/heap calls its
// methods.
type Queue []int

// Len is a heap.Interface method.
func (q Queue) Len() int { return len(q) }

// Less is a heap.Interface method.
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }

// Swap is a heap.Interface method.
func (q Queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

// Push is a heap.Interface method.
func (q *Queue) Push(x any) { *q = append(*q, x.(int)) }

// Pop is a heap.Interface method.
func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Oracle is kept for tests on purpose.
//
//aiclint:ignore testonly the reference the tests check Used against
func Oracle() int { return 1 }
