//go:build !race

package behavior

const raceEnabled = false
