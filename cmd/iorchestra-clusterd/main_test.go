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
// directory and returns the socket's path and a Dom0 client on it.
func serveStore(t *testing.T) (string, *netstore.Client) {
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
	return sock, c
}

// TestPlaceMatchesScoreHosts publishes two hosts into a store served on
// a Unix socket and runs one `place`: the decision it prints is the
// engine's over the registry it read, every host taken as live.
func TestPlaceMatchesScoreHosts(t *testing.T) {
	sock, c := serveStore(t)
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
	sock, c := serveStore(t)
	for _, id := range []string{"hostA", "hostB"} {
		federation.PublishHostStatics(c, id, "", 4)
		federation.PublishHeartbeat(c, id, 1)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	output, stopExpire := startExpire(t, sock, "-ttl", "300ms", "-sweep", "50ms")

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
			t.Fatalf("silent hostB still registered after 5 s\nstdout:\n%s\nstderr:\n%s", output("stdout"), output("stderr"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Let a few more TTLs pass: the beating host must outlive them.
	time.Sleep(time.Second)
	if !hosts()["hostA"] {
		t.Fatalf("beating hostA was expired\nstdout:\n%s", output("stdout"))
	}

	if out := stopExpire(); !strings.Contains(out, " expire hostB ") || strings.Contains(out, "hostA") {
		t.Errorf("expire printed:\n%s\nwant one line expiring hostB and none naming hostA", out)
	}
}

// startExpire runs `expire` with args against the store on sock and
// returns a reader of its stdout or stderr file and a stop that sends
// SIGTERM, checks that the daemon exits 0 within 5 s and returns its
// stdout. The daemon writes straight into files, so they can be read
// while it runs without racing a copying goroutine.
func startExpire(t *testing.T, sock string, args ...string) (output func(name string) string, stop func() string) {
	t.Helper()
	dir := t.TempDir()
	output = func(name string) string {
		b, _ := os.ReadFile(filepath.Join(dir, name))
		return string(b)
	}
	create := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	cmd := exec.Command(toolPath, append([]string{"expire", "-store", "unix://" + sock}, args...)...)
	cmd.Stdout, cmd.Stderr = create("stdout"), create("stderr")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
	})
	stop = func() string {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case <-exited:
			if waitErr != nil {
				t.Fatalf("expire after SIGTERM: %v\nstderr:\n%s", waitErr, output("stderr"))
			}
		case <-time.After(5 * time.Second):
			t.Fatal("expire did not exit within 5 s of SIGTERM")
		}
		return output("stdout")
	}
	return output, stop
}

// TestExpireForgetsDepartedHost has a host beat, leave gracefully and,
// a TTL later, come back under the same id without a beat yet. The
// expirer forgot the host when its entry went, so the returning entry
// gets a fresh grace stamp and outlives the next sweeps; an expirer
// that kept the departed host's stamp expires it at once, the stamp
// being older than the TTL. The TTL is 1 s and the check comes 400 ms
// after the return, so a slow machine only makes the expiry later.
func TestExpireForgetsDepartedHost(t *testing.T) {
	sock, c := serveStore(t)
	output, stop := startExpire(t, sock, "-ttl", "1s", "-sweep", "50ms")
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(output("stderr"), "expiring beats") { // printed once its watch is set
		if time.Now().After(deadline) {
			t.Fatalf("expire did not start within 5 s\nstderr:\n%s", output("stderr"))
		}
		time.Sleep(10 * time.Millisecond)
	}
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
	if out := stop(); strings.Contains(out, "hostC") {
		t.Errorf("expire printed:\n%s\nwant nothing naming hostC: it returned %v ago, within its grace TTL", out, 400*time.Millisecond)
	}
}
