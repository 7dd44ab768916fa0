//go:build unix

package main

func platform() string { return "unix" }
