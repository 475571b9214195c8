//go:build race

package simsvc

const raceEnabled = true
