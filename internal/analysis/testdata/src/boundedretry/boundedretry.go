// Package boundedretry exercises the bounded-retry rule: a bare for
// that retries via continue must bound its attempts with a relational
// counter or deadline check that bails out.
package boundedretry

import "errors"

var errGiveUp = errors.New("gave up")

func poll() (bool, error) { return false, nil }

// Unbounded: retries forever on a transient miss.
func unboundedRetry() error {
	for { // want `unbounded retry loop`
		ok, err := poll()
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		return nil
	}
}

// Bounded by an attempt counter: the relational guard bails out.
func boundedRetry() error {
	attempts := 0
	for {
		ok, err := poll()
		if err != nil {
			return err
		}
		attempts++
		if attempts > 8 {
			return errGiveUp
		}
		if !ok {
			continue
		}
		return nil
	}
}

// Bounded in the header: not a bare for, out of the rule's shape.
func headerBounded() {
	for i := 0; i < 4; i++ {
		if ok, _ := poll(); !ok {
			continue
		}
		return
	}
}

// A bare for with no loop-level continue is a dispatch loop (sift
// loops, select loops), not a retry loop: never flagged.
func dispatchLoop() int {
	n := 0
	for {
		n++
		if n == 10 {
			return n
		}
	}
}

// A continue confined to a nested loop does not make the outer
// dispatch loop retry-shaped.
func nestedContinue(items []int) int {
	total := 0
	for {
		for _, v := range items {
			if v < 0 {
				continue
			}
			total += v
		}
		if total != 0 {
			return total
		}
		total = 1
	}
}

// A panic bail-out behind a relational guard also counts as a bound.
func boundedByPanic() {
	tries := 0
	for {
		if ok, _ := poll(); ok {
			return
		}
		tries++
		if tries >= 100 {
			panic("poll never succeeded")
		}
		continue
	}
}
