// loop.go exercises the in-scope side of boundedretry: netstore is
// inside its gate, so the violation below must be flagged under auto
// scoping. Its twin in internal/analysis carries no expectation and
// proves the gate's negative side.
package netstore

func probe() bool { return true }

func retry() {
	for { // want `unbounded retry loop`
		if probe() {
			return
		}
		continue
	}
}
