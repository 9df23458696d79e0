// Package tobad holds exported code only its tests reach.
package tobad

// OnlyTests is called from the package's own test file alone.
func OnlyTests() int { return 1 } // want `tobad\.OnlyTests has no non-test use`

// Counter is a type the program never uses.
type Counter struct{ n int }

// Bump is a method only a test calls.
func (c *Counter) Bump() { c.n++ } // want `tobad\.Counter\.Bump has no non-test use`

// First is a generic function instantiated only in a test.
func First[E any](xs []E) E { return xs[0] } // want `tobad\.First has no non-test use`

// Nobody has no use at all.
func Nobody() {} // want `tobad\.Nobody has no non-test use`

// helper is unexported: not the analyzer's business.
func helper() {}
