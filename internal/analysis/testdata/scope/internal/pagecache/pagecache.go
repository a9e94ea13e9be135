// Package pagecache stands in for a simulation package that no list
// names: the determinism rule holds everywhere but the wall-clock
// bridges, so it flags wall-clock reads here too.
package pagecache

import "time"

func Age() time.Duration {
	return time.Since(time.Time{}) // want `time.Since reads the wall clock`
}
