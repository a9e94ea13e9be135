package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The tests build the real binary, as cmd/iorchestra-stored's do: a
// seeded scenario prints the same summary every run, and a flag value it
// does not know ends in one line on stderr and a non-zero exit, never a
// panic and never a run with a default put in its place.

var toolPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "iorchestra-sim")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolPath = filepath.Join(dir, "iorchestra-sim")
	out, err := exec.Command("go", "build", "-o", toolPath, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building iorchestra-sim: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

var flushNotices = regexp.MustCompile(`(?m)^iorchestra: (\d+) flush notices,`)

// TestBurstyFSIsDeterministicAndFlushes: the Fig. 8 flush-prone profile
// under the flush policy alone prints identical summaries from the same
// seed, and Algorithm 1 orders at least one flush.
func TestBurstyFSIsDeterministicAndFlushes(t *testing.T) {
	run := func() string {
		out, err := exec.Command(toolPath, "-workload", "burstyfs", "-vms", "3", "-seconds", "12",
			"-seed", "42", "-policies", "flush").Output()
		if err != nil {
			t.Fatalf("iorchestra-sim: %v", err)
		}
		return string(out)
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed, different summaries:\n%s\n---\n%s", first, second)
	}
	m := flushNotices.FindStringSubmatch(first)
	if m == nil {
		t.Fatalf("no flush-notice line in:\n%s", first)
	}
	if n, _ := strconv.Atoi(m[1]); n < 1 {
		t.Fatalf("no flush ordered:\n%s", first)
	}
}

func TestUnknownFlagValueExitsNonZero(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"-system", "xen", `unknown system "xen"`},
		{"-workload", "tpcc", `unknown workload "tpcc"`},
		{"-policies", "magic", `bad -policies "magic"`},
	} {
		cmd := exec.Command(toolPath, tc.flag, tc.value, "-seconds", "1")
		var se strings.Builder
		cmd.Stderr = &se
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
			t.Errorf("%s %s: %v, want a non-zero exit", tc.flag, tc.value, err)
			continue
		}
		stderr := se.String()
		if strings.Contains(stderr, "goroutine") || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%s %s: want one line mentioning %q, got:\n%s", tc.flag, tc.value, tc.want, stderr)
		}
	}
}
