package numeric

import (
	"math"
	"testing"
)

func TestNewtonRaphsonQuadratic(t *testing.T) {
	// Objective (x-3)^2 has derivative 2(x-3); stationary point at 3.
	fprime := func(x float64) float64 { return 2 * (x - 3) }
	res := NewtonRaphson(fprime, 0, -10, 10, 1e-9, 200)
	if !res.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(res.X-3) > 1e-6 {
		t.Fatalf("x = %v, want 3", res.X)
	}
	if res.Iterations > 5 {
		t.Fatalf("quadratic should converge in very few iterations, took %d", res.Iterations)
	}
}

func TestNewtonRaphsonClamping(t *testing.T) {
	// Stationary point at 30, outside [0, 10]: must stay clamped.
	fprime := func(x float64) float64 { return 2 * (x - 30) }
	res := NewtonRaphson(fprime, 5, 0, 10, 1e-9, 200)
	if res.X < 0 || res.X > 10 {
		t.Fatalf("x = %v escaped bounds", res.X)
	}
}

func TestNewtonRaphsonIterationBudget(t *testing.T) {
	// Pathological flat-ish derivative: should stop at the budget, not hang.
	fprime := func(x float64) float64 { return math.Tanh(x) * 1e-3 }
	res := NewtonRaphson(fprime, 4, -5, 5, 1e-15, 7)
	if res.Iterations > 7 {
		t.Fatalf("iterations = %d > budget", res.Iterations)
	}
}

func TestMinimizeEVTInteriorMinimum(t *testing.T) {
	f := func(x float64) float64 { return (x - 2.5) * (x - 2.5) }
	x, fx, _ := MinimizeEVT(f, 0, 10, 200)
	if math.Abs(x-2.5) > 1e-3 {
		t.Fatalf("x = %v, want 2.5", x)
	}
	if fx > 1e-6 {
		t.Fatalf("f = %v", fx)
	}
}

func TestMinimizeEVTBoundaryMinimum(t *testing.T) {
	// Monotone increasing: minimum at the left boundary.
	f := func(x float64) float64 { return x }
	x, _, _ := MinimizeEVT(f, 1, 9, 200)
	if x != 1 {
		t.Fatalf("x = %v, want boundary 1", x)
	}
	// Monotone decreasing: minimum at the right boundary.
	g := func(x float64) float64 { return -x }
	x, _, _ = MinimizeEVT(g, 1, 9, 200)
	if x != 9 {
		t.Fatalf("x = %v, want boundary 9", x)
	}
}

func TestMinimizeEVTSwappedBounds(t *testing.T) {
	f := func(x float64) float64 { return (x - 2) * (x - 2) }
	x, _, _ := MinimizeEVT(f, 10, 0, 200)
	if math.Abs(x-2) > 1e-3 {
		t.Fatalf("x = %v with swapped bounds", x)
	}
}

func TestGoldenSection(t *testing.T) {
	f := func(x float64) float64 { return math.Cosh(x - 1.25) }
	x, fx := GoldenSection(f, -10, 10, 1e-8)
	if math.Abs(x-1.25) > 1e-6 {
		t.Fatalf("x = %v, want 1.25", x)
	}
	if math.Abs(fx-1) > 1e-9 {
		t.Fatalf("f = %v, want 1", fx)
	}
}

func TestKahanSumCancellation(t *testing.T) {
	var k KahanSum
	k.Add(1e16)
	for i := 0; i < 10; i++ {
		k.Add(1)
	}
	k.Add(-1e16)
	if k.Value() != 10 {
		t.Fatalf("compensated sum = %v, want 10", k.Value())
	}
}

func TestKahanSumManySmall(t *testing.T) {
	var k KahanSum
	const n = 1_000_000
	for i := 0; i < n; i++ {
		k.Add(0.1)
	}
	if math.Abs(k.Value()-n*0.1) > 1e-6 {
		t.Fatalf("sum = %v", k.Value())
	}
}
