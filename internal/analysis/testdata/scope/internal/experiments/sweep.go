// sweep.go shares clock.go's package but not its exemption.
package experiments

import "time"

func Stamp() time.Time {
	return time.Now() // want `time.Now reads the wall clock`
}
