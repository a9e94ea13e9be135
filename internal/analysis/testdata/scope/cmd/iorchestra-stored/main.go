// Command iorchestra-stored's stand-in: under iorchestra/cmd/ but in
// nonSimScope, so its real-time accept-loop plumbing stays legal — the
// exemption must win over the cmd/ prefix match.
package main

import "time"

func main() {
	_ = time.Now()
	time.Sleep(time.Millisecond)
}
