package numeric

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("nearby seeds produced %d identical outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum KahanSum
	const n = 200000
	for i := 0; i < n; i++ {
		sum.Add(r.Float64())
	}
	mean := sum.Value() / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(13)
	for _, rate := range []float64{0.1, 1, 25} {
		var sum KahanSum
		const n = 200000
		for i := 0; i < n; i++ {
			sum.Add(r.Exp(rate))
		}
		mean := sum.Value() / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.02 {
			t.Fatalf("Exp(%v) mean = %v, want ~%v", rate, mean, want)
		}
	}
}

func TestRNGExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestRNGBytesLengths(t *testing.T) {
	r := NewRNG(29)
	for _, n := range []int{0, 1, 7, 8, 9, 4096} {
		buf := make([]byte, n)
		r.Bytes(buf)
		if n >= 64 {
			zero := 0
			for _, b := range buf {
				if b == 0 {
					zero++
				}
			}
			if zero > n/8 {
				t.Fatalf("len %d: %d zero bytes looks non-random", n, zero)
			}
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(5)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split children correlated: %d matches", same)
	}
}
