package netstore_test

// Concurrency soak: many clients hammering one server, with store-level
// watch faults injected, under the race detector. CI runs this with
// NETSTORE_SOAK=5s; plain `go test` keeps it short.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iorchestra/internal/netstore"
	"iorchestra/internal/store"
)

func soakDuration() time.Duration {
	if v := os.Getenv("NETSTORE_SOAK"); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return 1500 * time.Millisecond
}

// TestSoakConcurrentClientsWithFaults runs 8 guest clients, each mixing
// single-op and batched frames, against a server whose store drops 5% of
// notifications and delays 20% of the rest: the PR 2 fault grammar
// composed onto the wire path. Live clients must survive: no protocol
// errors, no evictions, and every client still answers a round trip at
// the end.
func TestSoakConcurrentClientsWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	srv := netstore.NewServer(netstore.Options{
		NotifyQueue:  256,
		WriteTimeout: time.Second,
		Faults:       "watchdrop=0.05,watchdelay=2ms:0.2",
		FaultSeed:    paritySeed,
	})
	t.Cleanup(srv.Close)
	sock := filepath.Join(t.TempDir(), "soak.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	const nClients = 8
	const keysPerDom = 16
	deadline := time.Now().Add(soakDuration())
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		dom := store.DomID(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := netstore.Dial("unix", sock, dom, "")
			if err != nil {
				errs <- fmt.Errorf("dom%d dial: %w", dom, err)
				return
			}
			defer c.Close()
			base := store.DomainPath(dom)
			for k := 0; k < keysPerDom; k++ {
				if err := c.Write(fmt.Sprintf("%s/k%d", base, k), "0"); err != nil {
					errs <- fmt.Errorf("dom%d seed: %w", dom, err)
					return
				}
			}
			var seen sync.Map
			if _, err := c.Watch(base, func(path, value string) {
				seen.Store(path, value)
			}); err != nil {
				errs <- fmt.Errorf("dom%d watch: %w", dom, err)
				return
			}
			for n := 0; time.Now().Before(deadline); n++ {
				key := fmt.Sprintf("%s/k%d", base, n%keysPerDom)
				var err error
				switch n % 6 {
				case 0, 1:
					err = c.Write(key, fmt.Sprint(n))
				case 2:
					_, err = c.Read(key)
				case 3:
					_, err = c.List(base)
				case 5:
					res, berr := c.NewBatch().
						Write(key, fmt.Sprintf("b%d", n)).
						Read(key).
						List(base).
						Run()
					err = berr
					for _, r := range res {
						if err == nil && r.Err != nil {
							err = r.Err
						}
					}
				case 4:
					txn, terr := c.Begin()
					if terr != nil {
						err = terr
						break
					}
					if _, rerr := txn.Read(key); rerr != nil {
						txn.Abort()
						err = rerr
						break
					}
					if werr := txn.Write(key, fmt.Sprintf("txn%d", n)); werr != nil {
						txn.Abort()
						err = werr
						break
					}
					if cerr := txn.Commit(); cerr != nil && !errors.Is(cerr, store.ErrConflict) {
						err = cerr
					}
				}
				if err != nil {
					errs <- fmt.Errorf("dom%d op %d: %w", dom, n, err)
					return
				}
			}
			// A final round trip proves the connection survived the soak.
			if err := c.Ping(); err != nil {
				errs <- fmt.Errorf("dom%d final ping: %w", dom, err)
				return
			}
			if err := c.Err(); err != nil {
				errs <- fmt.Errorf("dom%d transport: %w", dom, err)
			}
		}()
	}

	// Dom0 observer: stats and full subtree syncs while the guests hammer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := netstore.Dial("unix", sock, store.Dom0, "")
		if err != nil {
			errs <- fmt.Errorf("dom0 dial: %w", err)
			return
		}
		defer c.Close()
		for time.Now().Before(deadline) {
			if _, err := c.Stats(); err != nil {
				errs <- fmt.Errorf("dom0 stats: %w", err)
				return
			}
			if _, err := c.NewMirror(store.DomainPath(1)).Sync(); err != nil {
				errs <- fmt.Errorf("dom0 full sync: %w", err)
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	ctr := srv.Counters()
	if ctr.Evicted != 0 {
		t.Errorf("soak evicted %d live clients", ctr.Evicted)
	}
	if ctr.Events == 0 {
		t.Error("soak delivered no watch events")
	}
	if ctr.FaultDroppedNotifies == 0 && ctr.FaultDelayedNotifies == 0 {
		t.Errorf("fault injection never fired: %+v", ctr)
	}
	if ctr.Batches == 0 {
		t.Error("soak issued no batched frames")
	}
	t.Logf("soak counters: %+v", ctr)
}
