// Package determinismfix is a test fixture: the determinism rule must
// flag every line marked want, and nothing else.
package determinismfix

import (
	"math/rand"
	"time"
)

// bad exercises the forbidden wall-clock and global-rand entry points.
func bad() time.Duration {
	start := time.Now()          // want "time.Now reads the wall clock"
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
	if rand.Intn(10) > 5 {       // want "rand.Intn draws from the global math/rand source"
		<-time.After(time.Second) // want "time.After reads the wall clock"
	}
	return time.Since(start) // want "time.Since reads the wall clock"
}

// good shows the legal surface: duration arithmetic and an explicitly
// seeded generator.
func good() time.Duration {
	r := rand.New(rand.NewSource(42))
	return time.Duration(r.Int63n(1000)) * time.Millisecond
}
