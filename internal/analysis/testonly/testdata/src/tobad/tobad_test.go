package tobad

import "testing"

func TestUses(t *testing.T) {
	var c Counter
	c.Bump()
	if OnlyTests() != 1 || First([]int{4}) != 4 {
		t.Fatal("unexpected")
	}
	helper()
}
