//go:build !race

package llstar_test

// raceEnabled reports a -race build, whose instrumentation allocates
// on its own schedule and makes allocation counts meaningless.
const raceEnabled = false
