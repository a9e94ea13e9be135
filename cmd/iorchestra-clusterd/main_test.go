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
	"testing"

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

// TestPlaceMatchesScoreHosts publishes two hosts into a store served on
// a Unix socket and runs one `place`: the decision it prints is the
// engine's over the registry it read, every host taken as live.
func TestPlaceMatchesScoreHosts(t *testing.T) {
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
	defer c.Close()
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
