package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"iorchestra/internal/federation"
	"iorchestra/internal/netstore"
	"iorchestra/internal/store"
)

// The tests build the real binary and run it against a cluster store
// served in-process, so a placement printed by the daemon is checked
// against the federation engine over the same registry.

var toolPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "iorchestra-clusterd")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolPath = filepath.Join(dir, "iorchestra-clusterd")
	out, err := exec.Command("go", "build", "-o", toolPath, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building iorchestra-clusterd: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// serveStore serves a cluster store on a Unix socket in a test
// directory and returns the socket's path, a Dom0 client on it and the
// server.
func serveStore(t *testing.T) (string, *netstore.Client, *netstore.Server) {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "s.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := netstore.NewServer(netstore.Options{})
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	c, err := netstore.Dial("unix", sock, store.Dom0, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return sock, c, srv
}

// TestPlaceMatchesScoreHosts publishes two hosts into a store served on
// a Unix socket and runs one `place`: the decision it prints is the
// engine's over the registry it read, every host taken as live.
func TestPlaceMatchesScoreHosts(t *testing.T) {
	sock, c, _ := serveStore(t)
	federation.PublishHostStatics(c, "hostA", "", 8)
	federation.PublishHostLoad(c, "hostA", federation.HostLoad{ActiveVCPUs: 6, QueueDepth: 12, Util: 0.7, P99Ms: 9})
	federation.PublishHostStatics(c, "hostB", "", 4)
	federation.PublishHostLoad(c, "hostB", federation.HostLoad{ActiveVCPUs: 1, QueueDepth: 2, Util: 0.2, P99Ms: 3})
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(toolPath, "place", "-store", "unix://"+sock, "-guest", "vm1", "-vcpus", "2")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("place: %v\nstderr:\n%s", err, stderr.String())
	}

	var hosts []federation.HostStats
	for _, id := range []string{"hostA", "hostB"} {
		hs := federation.ReadHostStats(c, id)
		hs.Live = true
		hosts = append(hosts, hs)
	}
	scores, winner, mode := federation.ScoreHosts(federation.Policy{Overcommit: 1},
		federation.Request{Guest: "vm1", VCPUs: 2}, hosts)
	if winner < 0 {
		t.Fatalf("no host admits the request: %+v", scores)
	}
	want := placeDecision{Guest: "vm1", Host: scores[winner].ID, Mode: mode, Score: scores[winner].Score, Scores: scores}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if string(got) != buf.String() {
		t.Errorf("place printed:\n%s\nScoreHosts over the same registry:\n%s", got, buf.String())
	}
}

// TestPlaceBadModeExits: an unknown -mode is one line on stderr and a
// non-zero exit, before any store is dialled.
func TestPlaceBadModeExits(t *testing.T) {
	cmd := exec.Command(toolPath, "place", "-store", "unix://"+filepath.Join(t.TempDir(), "none.sock"),
		"-guest", "vm1", "-vcpus", "2", "-mode", "bogus")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("-mode bogus: %v, want a non-zero exit", err)
	}
	if s := stderr.String(); strings.Count(s, "\n") != 1 || !strings.Contains(s, `-mode "bogus"`) {
		t.Errorf("-mode bogus: want one line naming the mode, got:\n%s", s)
	}
}

// TestExpireRemovesSilentHost runs `expire` over two registered hosts,
// one kept beating and one silent: the silent entry is removed once its
// beat ages past the TTL, the beating one stays, and SIGTERM exits 0.
// The bounds are a few seconds, far above the 300 ms TTL, so a slow or
// single-CPU machine only makes the test take longer.
func TestExpireRemovesSilentHost(t *testing.T) {
	sock, c, _ := serveStore(t)
	for _, id := range []string{"hostA", "hostB"} {
		federation.PublishHostStatics(c, id, "", 4)
		federation.PublishHeartbeat(c, id, 1)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	expire := startRole(t, "expire", sock, "-ttl", "300ms", "-sweep", "50ms")

	// hostA beats every 25 ms until the test ends; hostB stays silent.
	stop := make(chan struct{})
	beaten := make(chan struct{})
	go func() {
		defer close(beaten)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for beat := int64(2); ; beat++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				federation.PublishHeartbeat(c, "hostA", beat)
			}
		}
	}()
	defer func() { close(stop); <-beaten }()

	hosts := func() map[string]bool {
		t.Helper()
		ids, err := c.List(store.HypervisorsPath())
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, id := range ids {
			set[id] = true
		}
		return set
	}
	deadline := time.Now().Add(5 * time.Second)
	for hosts()["hostB"] {
		if time.Now().After(deadline) {
			t.Fatalf("silent hostB still registered after 5 s\nstdout:\n%s\nstderr:\n%s", expire.output("stdout"), expire.output("stderr"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Let a few more TTLs pass: the beating host must outlive them.
	time.Sleep(time.Second)
	if !hosts()["hostA"] {
		t.Fatalf("beating hostA was expired\nstdout:\n%s", expire.output("stdout"))
	}

	if out := expire.stop(t); !strings.Contains(out, " expire hostB ") || strings.Contains(out, "hostA") {
		t.Errorf("expire printed:\n%s\nwant one line expiring hostB and none naming hostA", out)
	}
}

// daemon is one role of the binary running against a served store. It
// writes straight into files, so they can be read while it runs without
// racing a copying goroutine.
type daemon struct {
	dir     string
	cmd     *exec.Cmd
	exited  chan struct{}
	waitErr error // set before exited closes
}

// startRole runs the role with args against the store on sock; the test's
// cleanup kills it if it is still running.
func startRole(t *testing.T, role, sock string, args ...string) *daemon {
	t.Helper()
	d := &daemon{dir: t.TempDir(), exited: make(chan struct{})}
	create := func(name string) *os.File {
		f, err := os.Create(filepath.Join(d.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	d.cmd = exec.Command(toolPath, append([]string{role, "-store", "unix://" + sock}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = create("stdout"), create("stderr")
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.waitErr = d.cmd.Wait(); close(d.exited) }()
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
	return d
}

// output reads what the daemon wrote so far to "stdout" or "stderr".
func (d *daemon) output(name string) string {
	b, _ := os.ReadFile(filepath.Join(d.dir, name))
	return string(b)
}

// await waits up to within for some output file to contain want.
func (d *daemon) await(t *testing.T, name, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !strings.Contains(d.output(name), want) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q on %s within %v\nstdout:\n%s\nstderr:\n%s", want, name, within, d.output("stdout"), d.output("stderr"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// wait waits up to within for the daemon to exit and returns how it did.
func (d *daemon) wait(t *testing.T, within time.Duration) error {
	t.Helper()
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(within):
		t.Fatalf("%s did not exit within %v\nstderr:\n%s", d.cmd.Args[1], within, d.output("stderr"))
		return nil
	}
}

// stop sends SIGTERM, checks that the daemon exits 0 within 5 s and
// returns its stdout.
func (d *daemon) stop(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.wait(t, 5*time.Second); err != nil {
		t.Fatalf("%s after SIGTERM: %v\nstderr:\n%s", d.cmd.Args[1], err, d.output("stderr"))
	}
	return d.output("stdout")
}

// TestExpireForgetsDepartedHost has a host beat, leave gracefully and,
// a TTL later, come back under the same id without a beat yet. The
// expirer forgot the host when its entry went, so the returning entry
// gets a fresh grace stamp and outlives the next sweeps; an expirer
// that kept the departed host's stamp expires it at once, the stamp
// being older than the TTL. The TTL is 1 s and the check comes 400 ms
// after the return, so a slow machine only makes the expiry later.
func TestExpireForgetsDepartedHost(t *testing.T) {
	sock, c, _ := serveStore(t)
	expire := startRole(t, "expire", sock, "-ttl", "1s", "-sweep", "50ms")
	expire.await(t, "stderr", "expiring beats", 5*time.Second) // printed once its watch is set
	federation.PublishHostStatics(c, "hostC", "", 4)
	federation.PublishHeartbeat(c, "hostC", 1)
	time.Sleep(200 * time.Millisecond) // the beat reaches the expirer
	if err := c.Remove(store.HypervisorPath("hostC")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1200 * time.Millisecond) // the beat ages past the TTL
	federation.PublishHostStatics(c, "hostC", "", 4)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	if out := expire.stop(t); strings.Contains(out, "hostC") {
		t.Errorf("expire printed:\n%s\nwant nothing naming hostC: it returned %v ago, within its grace TTL", out, 400*time.Millisecond)
	}
}

// TestWatchEndsWhenStoreGoes runs `watch` against a served store, sees a
// host join, then closes the server: watch must say the store connection
// is lost and exit non-zero, not keep running on a dead connection. The
// 5 s bound is far above watch's 200 ms check.
func TestWatchEndsWhenStoreGoes(t *testing.T) {
	sock, c, srv := serveStore(t)
	// hostZ is listed as a member at start; hostA arrives after the
	// listing, so a beat of it heard through the watch is a join.
	federation.PublishHeartbeat(c, "hostZ", 1)
	watch := startRole(t, "watch", sock)
	watch.await(t, "stdout", " member hostZ", 5*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for beat := int64(1); !strings.Contains(watch.output("stdout"), " join hostA"); beat++ {
		if time.Now().After(deadline) {
			t.Fatalf("watch printed no join of hostA within 5 s\nstdout:\n%s\nstderr:\n%s", watch.output("stdout"), watch.output("stderr"))
		}
		// Beat until watch hears one: its watch is set just after the listing.
		federation.PublishHeartbeat(c, "hostA", beat)
		time.Sleep(20 * time.Millisecond)
	}

	srv.Close()
	err := watch.wait(t, 5*time.Second)
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("watch after the store closed: %v, want a non-zero exit\nstderr:\n%s", err, watch.output("stderr"))
	}
	if s := watch.output("stderr"); !strings.Contains(s, "watch: store connection lost: ") {
		t.Errorf("watch's stderr:\n%s\nwant a line saying the store connection is lost", s)
	}
}
