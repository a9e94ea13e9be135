// Command iorchestra-stored's stand-in: a wall-clock bridge, so its
// real-time accept-loop plumbing stays legal.
package main

import "time"

func main() {
	_ = time.Now()
	time.Sleep(time.Millisecond)
}
