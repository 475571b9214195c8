//go:build !race

package network

// raceEnabled reports a build with -race, whose allocator pads every object,
// so TestNetworkFootprint has nothing exact to measure.
const raceEnabled = false
