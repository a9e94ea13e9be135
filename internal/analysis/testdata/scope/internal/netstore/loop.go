// loop.go exercises the in-scope side of boundedretry: the rule holds
// in netstore, so Check must flag the violation below. Its twin in
// internal/analysis carries no expectation and proves the scope's
// negative side.
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
