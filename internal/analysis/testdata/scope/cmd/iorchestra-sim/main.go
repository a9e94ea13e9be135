// A simulation-driving command: the determinism rule holds in every
// command but the wall-clock bridges.
package main

import "time"

func main() {
	_ = time.Now() // want `time.Now reads the wall clock`
}
