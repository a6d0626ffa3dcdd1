//go:build !race

package tensor

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
