//go:build !race

package numeric_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
