package main

import "testing"

// TestUses calls what only tests use; the gate must still flag it.
func TestUses(t *testing.T) {
	if deadFunc()+(Widget{}).unused() != 2 {
		t.Fatal("unexpected")
	}
}
