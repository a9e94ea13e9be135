// Package netstore stands in for the wire-facing store server: it is a
// wall-clock bridge, so its socket deadlines must NOT be flagged. This
// file has no want comments, and the scope test fails on any unexpected
// finding.
package netstore

import "time"

func Deadline() time.Time {
	return time.Now().Add(2 * time.Second)
}

func Pace() {
	time.Sleep(time.Millisecond)
}
