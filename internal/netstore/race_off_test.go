//go:build !race

package netstore

const raceEnabled = false
