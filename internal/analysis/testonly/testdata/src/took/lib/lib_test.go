package lib

import "testing"

func TestOracle(t *testing.T) {
	if Used() != Oracle() {
		t.Fatal("Used disagrees with its oracle")
	}
}
