// Package core stands in for a deterministic-sim package: the
// determinism rule must flag wall-clock reads here.
package core

import "time"

func Tick() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}
