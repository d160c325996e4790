//go:build race

package sim

// raceEnabled reports whether the race detector is compiled in. Its
// runtime allocates on its own, so allocation budgets skip under -race.
const raceEnabled = true
