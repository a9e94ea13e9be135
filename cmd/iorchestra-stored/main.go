// Command iorchestra-stored serves the IOrchestra system store over the
// netstore wire protocol, so guests, management modules and tools on
// other machines (or processes) share one coordination tree — the
// networked stand-in for the XenStore bus of the paper's testbed.
//
// Endpoints are URLs: tcp://host:port or unix:///path. -listen may
// repeat; -trace-listen serves the live NDJSON decision stream that
// `iorchestra-trace tcp://...` tails. Store-level faults from the PR 2
// grammar (stalewrite, watchdrop, watchdelay) can be injected for
// resilience drills; a -faults spec that does not parse, or that names
// a guest- or device-level clause a store cannot realise, is refused
// with exit status 2 rather than served without its faults.
//
//	iorchestra-stored -listen tcp://127.0.0.1:7011
//	iorchestra-stored -listen unix:///run/iorchestra/store.sock \
//	    -trace-listen tcp://127.0.0.1:7012 \
//	    -faults 'watchdrop=0.01' -dom0-token secret
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"iorchestra/internal/fault"
	"iorchestra/internal/netstore"
)

// endpoints collects repeatable -listen style URL flags.
type endpoints []string

func (e *endpoints) String() string { return strings.Join(*e, ",") }
func (e *endpoints) Set(v string) error {
	*e = append(*e, v)
	return nil
}

// listen opens one tcp:// or unix:// endpoint URL; stale unix socket
// files from a previous run are removed before binding.
func listen(url string) (net.Listener, error) {
	if addr, ok := strings.CutPrefix(url, "tcp://"); ok {
		return net.Listen("tcp", addr)
	}
	if path, ok := strings.CutPrefix(url, "unix://"); ok {
		if _, err := os.Stat(path); err == nil {
			if c, derr := net.DialTimeout("unix", path, 200*time.Millisecond); derr == nil {
				c.Close()
				return nil, fmt.Errorf("unix://%s: already serving", path)
			}
			os.Remove(path)
		}
		return net.Listen("unix", path)
	}
	return nil, fmt.Errorf("endpoint %q: want tcp://host:port or unix:///path", url)
}

// checkFaults rejects a -faults spec the store would not run as asked:
// one that does not parse, or one naming guest- or device-level clauses,
// which only a simulated host can inject.
func checkFaults(raw string) error {
	spec, err := fault.ParseSpec(raw)
	if err != nil {
		return err
	}
	spec.StaleWriteProb, spec.WatchDropProb, spec.WatchDelayProb = 0, 0, 0
	if !spec.Empty() {
		return fmt.Errorf("a store cannot inject %s (it takes stalewrite, watchdrop, watchdelay)", spec)
	}
	return nil
}

func main() {
	var listens, traceListens endpoints
	flag.Var(&listens, "listen", "store endpoint URL (tcp://host:port or unix:///path); repeatable")
	flag.Var(&traceListens, "trace-listen", "live NDJSON trace endpoint URL; repeatable")
	token := flag.String("dom0-token", os.Getenv("IORCHESTRA_DOM0_TOKEN"),
		"token required to bind a connection to Dom0 (default $IORCHESTRA_DOM0_TOKEN; empty = open)")
	faults := flag.String("faults", "", "fault spec applied to the store (e.g. 'watchdrop=0.05,watchdelay=10ms:0.2')")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault injector's deterministic stream")
	notifyQueue := flag.Int("notify-queue", 1024, "per-connection watch-event queue bound")
	writeTimeout := flag.Duration("write-timeout", 2*time.Second, "slow-client eviction window")
	maxTxns := flag.Int("max-txns", 64, "open transactions allowed per connection")
	flag.Parse()
	if len(listens) == 0 {
		listens = endpoints{"tcp://127.0.0.1:7011"}
	}
	if err := checkFaults(*faults); err != nil {
		fmt.Fprintln(os.Stderr, "iorchestra-stored: -faults:", err)
		os.Exit(2)
	}

	srv := netstore.NewServer(netstore.Options{
		NotifyQueue:  *notifyQueue,
		WriteTimeout: *writeTimeout,
		Dom0Token:    *token,
		MaxTxns:      *maxTxns,
		Faults:       *faults,
		FaultSeed:    *faultSeed,
	})

	errs := make(chan error, len(listens)+len(traceListens))
	for _, url := range listens {
		l, err := listen(url)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iorchestra-stored:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "iorchestra-stored: serving store on %s\n", url)
		go func() { errs <- srv.Serve(l) }()
	}
	for _, url := range traceListens {
		l, err := listen(url)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iorchestra-stored:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "iorchestra-stored: streaming trace on %s\n", url)
		go func() { errs <- srv.ServeTrace(l) }()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "iorchestra-stored: %v, draining\n", s)
	case err := <-errs:
		if err != nil {
			fmt.Fprintln(os.Stderr, "iorchestra-stored:", err)
		}
	}
	ctr := srv.Counters()
	srv.Close()
	fmt.Fprintf(os.Stderr,
		"iorchestra-stored: served %d conns (%d evicted), %d events (%d coalesced), %d writes, %d trace lines dropped\n",
		ctr.Accepted, ctr.Evicted, ctr.Events, ctr.Coalesced, ctr.StoreWrites, ctr.TraceDropped)
}
