//go:build !race

package simsvc

// raceEnabled reports a build with -race, under which TestHitAllocBudget has
// nothing exact to measure.
const raceEnabled = false
