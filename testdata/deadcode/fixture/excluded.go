//go:build ignore

package main

// excludedOnly exists only in a file no build selects: the gate must not
// see it.
func excludedOnly() {}
