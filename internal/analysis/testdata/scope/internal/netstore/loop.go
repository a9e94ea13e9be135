// loop.go exercises the in-scope side of the PR 9 passes: netstore is
// inside hotpathalloc's and boundedretry's gates, so the violations
// below must be flagged under auto scoping. Their twins in
// internal/analysis and cmd/iorchestra-stored carry no expectations and
// prove the gates' negative side.
package netstore

import "fmt"

// hotpath
func hotFmt(n int) string {
	return fmt.Sprintf("%d", n) // want `fmt\.Sprintf formats through reflection`
}

func probe() bool { return true }

func retry() {
	for { // want `unbounded retry loop`
		if probe() {
			return
		}
		continue
	}
}
