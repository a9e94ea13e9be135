package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"iorchestra/internal/analysis"
)

// The e2e tests build the real binary and run it against the tiny
// module under testdata/vetfixture — a package with deliberate
// violations next to a clean one — asserting exit statuses, diagnostic
// text, and the -scope/-run selection behavior.

var toolPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "iorchestra-vet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	toolPath = filepath.Join(dir, "iorchestra-vet")
	if out, err := exec.Command("go", "build", "-o", toolPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building iorchestra-vet: %v\n%s", err, out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// runTool runs the built binary with the fixture module as its working
// directory and returns stdout, stderr, and the exit status.
func runTool(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(toolPath, args...)
	cmd.Dir = filepath.Join("testdata", "vetfixture")
	var so, se strings.Builder
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running iorchestra-vet %v: %v", args, err)
	}
	return so.String(), se.String(), exit
}

func TestDirtyPackageAllScope(t *testing.T) {
	stdout, stderr, exit := runTool(t, "-scope=all", "./dirty")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	for _, needle := range []string{
		"dirty/dirty.go:",
		"[storekeys]",
		"raw store path literal",
		"[determinism]",
		"time.Now reads the wall clock",
	} {
		if !strings.Contains(stdout, needle) {
			t.Errorf("stdout missing %q:\n%s", needle, stdout)
		}
	}
	if !strings.Contains(stderr, "2 finding(s)") {
		t.Errorf("stderr = %q, want finding count 2", stderr)
	}
}

// Under the default auto scope the fixture module is outside the
// determinism pass's package list, so only storekeys (which applies
// everywhere) fires.
func TestDirtyPackageAutoScope(t *testing.T) {
	stdout, stderr, exit := runTool(t, "./dirty")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	if !strings.Contains(stdout, "[storekeys]") {
		t.Errorf("stdout missing storekeys finding:\n%s", stdout)
	}
	if strings.Contains(stdout, "[determinism]") {
		t.Errorf("determinism fired outside its scope:\n%s", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("stderr = %q, want finding count 1", stderr)
	}
}

func TestRunSelectsPasses(t *testing.T) {
	stdout, _, exit := runTool(t, "-scope=all", "-run", "determinism", "./dirty")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s", exit, stdout)
	}
	if !strings.Contains(stdout, "[determinism]") || strings.Contains(stdout, "[storekeys]") {
		t.Errorf("-run determinism should report only determinism findings:\n%s", stdout)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	stdout, stderr, exit := runTool(t, "-scope=all", "./clean")
	if exit != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	if stdout != "" || stderr != "" {
		t.Errorf("clean run should be silent, got stdout %q stderr %q", stdout, stderr)
	}
}

func TestUnknownPassExitsTwo(t *testing.T) {
	_, stderr, exit := runTool(t, "-run", "nosuchpass", "./clean")
	if exit != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", exit, stderr)
	}
	if !strings.Contains(stderr, "unknown pass") {
		t.Errorf("stderr = %q, want unknown-pass error", stderr)
	}
}

// TestListDescribesSuite holds -list, the suite and the rule reference
// to one another: -list prints every pass of analysis.Suite() in order,
// and docs/LINTING.md's "The passes" has one ### `name` heading per pass
// and no other.
func TestListDescribesSuite(t *testing.T) {
	stdout, _, exit := runTool(t, "-list")
	if exit != 0 {
		t.Fatalf("exit = %d, want 0", exit)
	}
	var names []string
	for _, a := range analysis.Suite() {
		names = append(names, a.Name)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d passes, want %d:\n%s", len(lines), len(names), stdout)
	}
	for i, name := range names {
		if !strings.HasPrefix(lines[i], name+" ") {
			t.Errorf("-list line %d = %q, want pass %q", i, lines[i], name)
		}
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "LINTING.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## The passes\n")
	if !ok {
		t.Fatal(`docs/LINTING.md has no "## The passes" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var headed []string
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "### `"); ok {
			name, _, _ := strings.Cut(rest, "`")
			headed = append(headed, name)
		}
	}
	if !slices.Equal(headed, names) {
		t.Errorf(`docs/LINTING.md "The passes" heads %q, want one section per pass: %q`, headed, names)
	}
}

// findingsReport mirrors the -json findings envelope; the field set is
// the schema contract CI's problem matcher depends on.
type findingsReport struct {
	Version  int `json:"version"`
	Findings []struct {
		Pass    string `json:"pass"`
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Message string `json:"message"`
	} `json:"findings"`
}

func TestJSONFindings(t *testing.T) {
	stdout, stderr, exit := runTool(t, "-scope=all", "-json", "./dirty")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, stdout, stderr)
	}
	var rep findingsReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Version != 1 {
		t.Errorf("version = %d, want 1", rep.Version)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %d, want 2:\n%s", len(rep.Findings), stdout)
	}
	passes := map[string]bool{}
	for _, f := range rep.Findings {
		passes[f.Pass] = true
		if f.File != filepath.Join("dirty", "dirty.go") {
			t.Errorf("finding file = %q, want relative dirty/dirty.go", f.File)
		}
		if f.Line == 0 || f.Col == 0 || f.Message == "" {
			t.Errorf("finding missing position or message: %+v", f)
		}
	}
	if !passes["storekeys"] || !passes["determinism"] {
		t.Errorf("findings should cover storekeys and determinism, got %v", passes)
	}
	if !strings.Contains(stderr, "2 finding(s)") {
		t.Errorf("stderr = %q, want finding count on stderr (stdout stays pure JSON)", stderr)
	}
}

func TestJSONCleanEmitsEmptyArray(t *testing.T) {
	stdout, _, exit := runTool(t, "-scope=all", "-json", "./clean")
	if exit != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s", exit, stdout)
	}
	var rep findingsReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Findings == nil || len(rep.Findings) != 0 {
		t.Errorf("clean run must emit \"findings\": [] (not null), got:\n%s", stdout)
	}
}

// Usage errors keep exit code 2 in every output mode.
func TestUnknownPassExitsTwoUnderJSON(t *testing.T) {
	_, stderr, exit := runTool(t, "-json", "-run", "nosuchpass", "./clean")
	if exit != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", exit, stderr)
	}
	if !strings.Contains(stderr, "unknown pass") {
		t.Errorf("stderr = %q, want unknown-pass error", stderr)
	}
}
