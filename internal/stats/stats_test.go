package stats

import "testing"

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Fatal("Mean([2 4 6]) != 4")
	}
}
