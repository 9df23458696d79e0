// Command user is the non-test code that uses lib.
package main

import (
	"container/heap"
	"fmt"

	"aic/internal/analysis/testonly/testdata/src/took/lib"
)

// Shape is an interface the program names; no function takes it.
type Shape interface{ Area() float64 }

func main() {
	m := &lib.Meter{}
	read := m.Read
	var s Shape = m
	q := &lib.Queue{3, 1, 2}
	heap.Init(q)
	fmt.Println(lib.Used(), read(), s.Area(), lib.Box[int]{}.Get(), lib.Map([]int{1}, func(i int) string { return fmt.Sprint(i) }), lib.NewFault(), m)
}
