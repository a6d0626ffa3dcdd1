//go:build !race

package experiment

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
