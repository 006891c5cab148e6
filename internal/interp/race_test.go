//go:build race

package interp_test

const raceEnabled = true
