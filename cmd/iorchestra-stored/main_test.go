package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iorchestra/internal/netstore"
)

// The tests build the real binary, as cmd/iorchestra-vet's do, and pin
// how -faults fails: a spec the store would not run exactly as asked
// ends in one line on stderr and exit status 2, never a panic and never
// a store silently serving without its faults.

var toolPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "iorchestra-stored")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolPath = filepath.Join(dir, "iorchestra-stored")
	out, err := exec.Command("go", "build", "-o", toolPath, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building iorchestra-stored: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestBadFaultSpecExitsTwo(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"nonsense=1", `unknown clause "nonsense"`},
		{"watchdrop=2", "probability in [0,1]"},
		{"uncoop=0.5", "cannot inject uncoop=0.5"},
		{"watchdrop=0.01,stucksync=0.5,member=3:8", "cannot inject stucksync=0.5,member=3:8"},
	} {
		cmd := exec.Command(toolPath, "-faults", tc.spec)
		var se strings.Builder
		cmd.Stderr = &se
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("-faults %q: %v, want exit status 2\nstderr:\n%s", tc.spec, err, se.String())
			continue
		}
		stderr := se.String()
		if strings.Contains(stderr, "goroutine") || strings.Count(stderr, "\n") != 1 {
			t.Errorf("-faults %q: want one line and no panic, got:\n%s", tc.spec, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Errorf("-faults %q: stderr %q does not mention %q", tc.spec, stderr, tc.want)
		}
	}
}

func TestStoreFaultSpecServes(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "s.sock")
	cmd := exec.Command(toolPath, "-listen", "unix://"+sock, "-faults", "watchdrop=0.01")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{}) // closed once the process has been reaped
	t.Cleanup(func() {
		cmd.Process.Signal(os.Interrupt)
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Error("iorchestra-stored did not drain on SIGINT")
		}
	})
	serving := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "serving store on") {
				serving <- true
			}
		}
		cmd.Wait()
		close(exited)
	}()
	select {
	case <-serving:
	case <-exited:
		t.Fatalf("iorchestra-stored exited before serving: %v", cmd.ProcessState)
	case <-time.After(10 * time.Second):
		t.Fatal("iorchestra-stored never announced its listener")
	}
	c, err := netstore.Dial("unix", sock, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping through a store with watchdrop=0.01: %v", err)
	}
}
