// Package analysis is boundedretry's scope carve-out: the real
// package's tests build retry-shaped loops as subjects, so the rule must
// not fire here — no want comments.
package analysis

func Probe() bool { return true }

func SpinForever() {
	for {
		if Probe() {
			return
		}
		continue
	}
}
