package numeric

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSolveLinearIdentity(t *testing.T) {
	a := [][]float64{{1, 0}, {0, 1}}
	b := []float64{3, -4}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != -4 {
		t.Fatalf("got %v", x)
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  =>  x = 2, y = 1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Fatalf("got %v, want [2 1]", x)
	}
}

func TestSolveLinearNeedsPivot(t *testing.T) {
	// Leading zero forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := SolveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Fatalf("got %v", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := SolveLinear(a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearDimensionMismatch(t *testing.T) {
	if _, err := SolveLinear([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for mismatched rhs")
	}
	if _, err := SolveLinear([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for ragged matrix")
	}
}

func TestSolveLinearEmpty(t *testing.T) {
	x, err := SolveLinear(nil, nil)
	if err != nil || len(x) != 0 {
		t.Fatalf("empty system: x=%v err=%v", x, err)
	}
}

// Property: for a random diagonally dominant system, A·x ≈ b after solving.
func TestSolveLinearResidualProperty(t *testing.T) {
	r := NewRNG(99)
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 1
		a := make([][]float64, n)
		aCopy := make([][]float64, n)
		b := make([]float64, n)
		bCopy := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = make([]float64, n)
			aCopy[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				a[i][j] = normal(r)
			}
			a[i][i] += float64(n) + 1 // diagonal dominance
			copy(aCopy[i], a[i])
			b[i] = normal(r)
			bCopy[i] = b[i]
		}
		x, err := SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var sum KahanSum
			for j := 0; j < n; j++ {
				sum.Add(aCopy[i][j] * x[j])
			}
			if math.Abs(sum.Value()-bCopy[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 3a - 2b, enough independent rows for an exact recovery.
	x := [][]float64{{1, 0}, {0, 1}, {1, 1}, {2, 1}}
	y := []float64{3, -2, 1, 4}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-3) > 1e-6 || math.Abs(beta[1]+2) > 1e-6 {
		t.Fatalf("beta = %v, want [3 -2]", beta)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	r := NewRNG(7)
	const m, p = 200, 3
	truth := []float64{1.5, -0.5, 2.0}
	x := make([][]float64, m)
	y := make([]float64, m)
	for i := 0; i < m; i++ {
		x[i] = []float64{normal(r), normal(r), normal(r)}
		for j := 0; j < p; j++ {
			y[i] += truth[j] * x[i][j]
		}
		y[i] += 0.01 * normal(r)
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < p; j++ {
		if math.Abs(beta[j]-truth[j]) > 0.02 {
			t.Fatalf("beta[%d] = %v, want ~%v", j, beta[j], truth[j])
		}
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(nil, nil); err == nil {
		t.Fatal("expected error for empty design")
	}
	if _, err := LeastSquares([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for row/target mismatch")
	}
	if _, err := LeastSquares([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

// normal returns a standard normal variate (Marsaglia polar method), for
// test inputs.
func normal(r *RNG) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		if s := u*u + v*v; s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
