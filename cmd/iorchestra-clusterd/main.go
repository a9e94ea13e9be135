// Command iorchestra-clusterd runs the federation control plane against
// a real cluster store served by iorchestra-stored — the wall-clock
// counterpart of internal/federation's in-sim registry and placement
// (docs/CLUSTER.md is the normative reference for the key schema, the
// heartbeat/TTL semantics and the scoring formula; all four roles below
// share their implementation with the simulator through the
// federation package, so a decision made here matches the simulated one
// bit for bit).
//
// Roles:
//
//	join    register this host under /cluster/hypervisors/<id> and keep
//	        its entry fresh with periodic heartbeats (statics republished
//	        every beat, so an expired entry self-heals); removes the
//	        entry on SIGINT/SIGTERM (a graceful leave)
//	watch   stream membership transitions (join/beat/leave) to stdout
//	expire  enforce the heartbeat TTL: remove entries whose beats
//	        stalled — liveness enforcement is the expirer's job, exactly
//	        one per cluster
//	place   one-shot placement: score the registry's hosts for a guest
//	        request with the shared engine and print the decision
//
// Examples:
//
//	iorchestra-clusterd join -store tcp://127.0.0.1:7011 -id hostA -cores 12
//	iorchestra-clusterd watch -store tcp://127.0.0.1:7011
//	iorchestra-clusterd expire -store tcp://127.0.0.1:7011 -ttl 3500ms
//	iorchestra-clusterd place -store tcp://127.0.0.1:7011 \
//	    -guest vm042 -vcpus 4 -mode permissive -bind
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"iorchestra/internal/federation"
	"iorchestra/internal/gstate"
	"iorchestra/internal/netstore"
	"iorchestra/internal/store"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: iorchestra-clusterd <role> [flags]

roles:
  join      register and heartbeat one host (leave on SIGINT)
  watch     stream membership transitions to stdout
  expire    TTL-expire hosts whose heartbeats stalled
  place     one-shot scored placement for a guest request

run "iorchestra-clusterd <role> -h" for the role's flags
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "join":
		err = cmdJoin(os.Args[2:])
	case "watch":
		err = cmdWatch(os.Args[2:])
	case "expire":
		err = cmdExpire(os.Args[2:])
	case "place":
		err = cmdPlace(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "iorchestra-clusterd: unknown role %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "iorchestra-clusterd:", err)
		os.Exit(1)
	}
}

// dial connects to the cluster store as Dom0 (the federation is a
// privileged management module, like the in-sim LocalView).
func dial(url, token string) (*netstore.Client, error) {
	if addr, ok := strings.CutPrefix(url, "tcp://"); ok {
		return netstore.Dial("tcp", addr, store.Dom0, token)
	}
	if path, ok := strings.CutPrefix(url, "unix://"); ok {
		return netstore.Dial("unix", path, store.Dom0, token)
	}
	return nil, fmt.Errorf("store endpoint %q: want tcp://host:port or unix:///path", url)
}

// storeFlags declares the flags every role shares.
func storeFlags(fs *flag.FlagSet) (url, token *string) {
	url = fs.String("store", "tcp://127.0.0.1:7011", "cluster store endpoint (an iorchestra-stored -listen URL)")
	token = fs.String("dom0-token", os.Getenv("IORCHESTRA_DOM0_TOKEN"),
		"Dom0 bind token (default $IORCHESTRA_DOM0_TOKEN)")
	return
}

// A netstore connection is a federation.View as it stands, so the same
// registry/placement/migration code runs whether the cluster store is an
// object or a socket away.
var _ federation.View = (*netstore.Client)(nil)

// cmdJoin registers the host and heartbeats until a signal, then leaves
// gracefully by removing its entry (so peers see a leave, not a TTL
// expiry).
// parseTierList maps a comma-separated -tiers value onto a zero-count
// census: key presence declares capability (docs/GSTATES.md §7), and a
// freshly joined host has admitted nobody. Unknown tier names are
// rejected rather than defaulted — a typo silently demoting a host to
// bronze-only would be a placement bug waiting to be found in an
// incident.
func parseTierList(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	counts := map[string]int{}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		switch gstate.Tier(name) {
		case gstate.Gold, gstate.Silver, gstate.Bronze:
			counts[name] = 0
		default:
			return nil, fmt.Errorf("join: bad -tiers entry %q: want gold, silver or bronze", name)
		}
	}
	return counts, nil
}

func cmdJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	url, token := storeFlags(fs)
	id := fs.String("id", "", "hypervisor id (required)")
	class := fs.String("class", "", "domain class label (matched against a request's -class)")
	cores := fs.Int("cores", 0, "physical cores to publish (required)")
	interval := fs.Duration("interval", time.Second, "heartbeat interval")
	active := fs.Int("active-vcpus", 0, "active VCPUs to publish each beat")
	queue := fs.Int("queue-depth", 0, "queue depth to publish each beat")
	util := fs.Float64("util", 0, "device utilization fraction to publish each beat")
	p99 := fs.Float64("p99-ms", 0, "host-path p99 latency (ms) to publish each beat")
	tiers := fs.String("tiers", "", "comma-separated SLA tiers this host admits, e.g. gold,silver,bronze (empty = untiered host; a place -tier request needs the tier in this census)")
	fs.Parse(args)
	if *id == "" || *cores <= 0 {
		return fmt.Errorf("join: -id and -cores are required")
	}
	tierCounts, err := parseTierList(*tiers)
	if err != nil {
		return err
	}
	c, err := dial(*url, *token)
	if err != nil {
		return err
	}
	defer c.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	fmt.Fprintf(os.Stderr, "iorchestra-clusterd: joined as %s (%d cores, every %v)\n", *id, *cores, *interval)
	for beat := int64(1); ; beat++ {
		// Statics ride along with every beat: a wrongly expired entry
		// heals itself the moment the next beat lands.
		federation.PublishHostStatics(c, *id, *class, *cores)
		federation.PublishHostLoad(c, *id, federation.HostLoad{
			ActiveVCPUs: *active, QueueDepth: *queue, Util: *util, P99Ms: *p99,
		})
		if len(tierCounts) > 0 {
			federation.PublishTierCounts(c, *id, tierCounts)
		}
		federation.PublishHeartbeat(c, *id, beat)
		if err := c.Err(); err != nil {
			return fmt.Errorf("join: store connection lost: %w", err)
		}
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "iorchestra-clusterd: %v, leaving\n", s)
			return c.Remove(store.HypervisorPath(*id))
		case <-tick.C:
		}
	}
}

// cmdWatch streams membership transitions: first-heard joins, beats,
// and entry removals (expiry or graceful leave).
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	url, token := storeFlags(fs)
	beats := fs.Bool("beats", false, "print every heartbeat, not only transitions")
	fs.Parse(args)
	c, err := dial(*url, *token)
	if err != nil {
		return err
	}
	defer c.Close()

	root := store.HypervisorsPath()
	seen := map[string]bool{} // touched only on the client's dispatch goroutine
	for _, id := range registryHosts(c) {
		seen[id] = true
		fmt.Printf("%s member %s\n", time.Now().Format(time.RFC3339), id)
	}
	_, err = c.Watch(root, func(path, value string) {
		now := time.Now().Format(time.RFC3339)
		if id, ok := federation.BeatObserved(root, path); ok {
			if !seen[id] {
				seen[id] = true
				fmt.Printf("%s join %s\n", now, id)
			} else if *beats {
				fmt.Printf("%s beat %s (#%s)\n", now, id, value)
			}
			return
		}
		if id, ok := federation.EntryRemoved(root, path, value); ok && seen[id] {
			delete(seen, id)
			fmt.Printf("%s leave %s\n", now, id)
		}
	})
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

// cmdExpire enforces the heartbeat TTL: beats are stamped on arrival,
// and a periodic sweep removes entries whose stamp aged out — the
// wall-clock twin of Federation.sweepTick. Entries present before this
// expirer started get a grace stamp, so a restart never mass-expires a
// healthy cluster.
func cmdExpire(args []string) error {
	fs := flag.NewFlagSet("expire", flag.ExitOnError)
	url, token := storeFlags(fs)
	ttl := fs.Duration("ttl", 3500*time.Millisecond, "heartbeat age past which a host is dead")
	sweep := fs.Duration("sweep", 0, "sweep cadence (default ttl/2)")
	fs.Parse(args)
	if *sweep <= 0 {
		*sweep = *ttl / 2
	}
	c, err := dial(*url, *token)
	if err != nil {
		return err
	}
	defer c.Close()
	var mu sync.Mutex // beat stamps arrive on the dispatch goroutine; the sweep ticks on main
	lastBeat := map[string]time.Time{}
	for _, id := range registryHosts(c) {
		lastBeat[id] = time.Now()
	}
	root := store.HypervisorsPath()
	_, err = c.Watch(root, func(path, value string) {
		if id, ok := federation.BeatObserved(root, path); ok {
			mu.Lock()
			lastBeat[id] = time.Now()
			mu.Unlock()
		}
	})
	if err != nil {
		return err
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*sweep)
	defer tick.Stop()
	fmt.Fprintf(os.Stderr, "iorchestra-clusterd: expiring beats older than %v every %v\n", *ttl, *sweep)
	for {
		select {
		case <-sig:
			return nil
		case <-tick.C:
		}
		if err := c.Err(); err != nil {
			return fmt.Errorf("expire: store connection lost: %w", err)
		}
		for _, id := range registryHosts(c) {
			mu.Lock()
			at, heard := lastBeat[id]
			mu.Unlock()
			if !heard {
				// In the tree but never heard from: grace-stamp it and
				// let the TTL run from now.
				mu.Lock()
				lastBeat[id] = time.Now()
				mu.Unlock()
				continue
			}
			if age := time.Since(at); age > *ttl {
				mu.Lock()
				delete(lastBeat, id)
				mu.Unlock()
				if err := c.Remove(store.HypervisorPath(id)); err == nil {
					fmt.Printf("%s expire %s (age %v)\n", time.Now().Format(time.RFC3339), id, age.Round(time.Millisecond))
				}
			}
		}
	}
}

// placeDecision is the JSON document cmdPlace prints.
type placeDecision struct {
	Guest  string                 `json:"guest"`
	Host   string                 `json:"host,omitempty"`
	Mode   string                 `json:"mode"`
	Score  float64                `json:"score,omitempty"`
	Scores []federation.HostScore `json:"scores"`
}

// cmdPlace scores the current registry for one request with the shared
// pure engine and prints the decision. Listed hosts are taken as live —
// keeping dead entries out of the registry is the expirer's job, so
// liveness enforcement happens in exactly one place.
func cmdPlace(args []string) error {
	fs := flag.NewFlagSet("place", flag.ExitOnError)
	url, token := storeFlags(fs)
	guest := fs.String("guest", "", "guest uid (required)")
	vcpus := fs.Int("vcpus", 0, "VCPU ask (required)")
	class := fs.String("class", "", "required domain class (empty = any)")
	tier := fs.String("tier", "", "guest SLA tier: gold, silver or bronze (empty = untiered; hosts must publish the tier in their /tiers census)")
	mode := fs.String("mode", "enforce", "infeasibility handling: enforce or permissive")
	overcommit := fs.Float64("overcommit", 1.0, "capacity scale factor")
	wq := fs.Float64("w-queue", 0, "queue-depth weight (0 0 0 = defaults 0.4/0.4/0.2)")
	wu := fs.Float64("w-util", 0, "utilization weight")
	wl := fs.Float64("w-latency", 0, "p99-latency weight")
	bind := fs.Bool("bind", false, "on admission, record the guest placement in the cluster registry")
	fs.Parse(args)
	if *guest == "" || *vcpus <= 0 {
		return fmt.Errorf("place: -guest and -vcpus are required")
	}
	switch *tier {
	case "", "gold", "silver", "bronze":
	default:
		return fmt.Errorf("place: -tier %q: want gold, silver or bronze", *tier)
	}
	pol := federation.Policy{
		Overcommit:  *overcommit,
		QueueWeight: *wq, UtilWeight: *wu, LatencyWeight: *wl,
	}
	switch *mode {
	case "enforce":
	case "permissive":
		pol.Mode = federation.Permissive
	default:
		return fmt.Errorf("place: -mode %q: want enforce or permissive", *mode)
	}
	c, err := dial(*url, *token)
	if err != nil {
		return err
	}
	defer c.Close()
	var hosts []federation.HostStats
	for _, id := range registryHosts(c) {
		hs := federation.ReadHostStats(c, id)
		hs.Live = true // presence in the registry is the expirer's liveness verdict
		hosts = append(hosts, hs)
	}
	scores, winner, decision := federation.ScoreHosts(pol, federation.Request{
		Guest: *guest, VCPUs: *vcpus, Class: *class, Tier: *tier,
	}, hosts)
	out := placeDecision{Guest: *guest, Mode: decision, Scores: scores}
	if winner >= 0 {
		out.Host, out.Score = scores[winner].ID, scores[winner].Score
		if *bind {
			if err := federation.RecordPlacement(c, *guest, out.Host, *vcpus); err != nil {
				return fmt.Errorf("place: bind: %w", err)
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if winner < 0 {
		os.Exit(1)
	}
	return nil
}

// registryHosts lists the registered hypervisor ids, sorted.
func registryHosts(v federation.View) []string {
	ids, err := v.List(store.HypervisorsPath())
	if err != nil {
		return nil
	}
	sort.Strings(ids)
	return ids
}
