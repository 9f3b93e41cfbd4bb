//go:build race

package main

// raceEnabled reports a -race build, whose slowdown swamps timing bounds.
const raceEnabled = true
