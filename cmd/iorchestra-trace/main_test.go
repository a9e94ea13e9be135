package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"iorchestra/internal/netstore"
	"iorchestra/internal/store"
)

// The tests build the real binary, as cmd/iorchestra-stored's do, and
// point it at an in-process netstore server.

var toolPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "iorchestra-trace")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolPath = filepath.Join(dir, "iorchestra-trace")
	out, err := exec.Command("go", "build", "-o", toolPath, ".").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building iorchestra-trace: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestTailLiveServer: -count N against a server's trace endpoint, while
// a client writes a key it watches, prints N store.write and store.watch
// records in the order the server numbered them — each write, then its
// delivery, the values counting up — and then the summary of those N.
func TestTailLiveServer(t *testing.T) {
	dir := t.TempDir()
	srv := netstore.NewServer(netstore.Options{})
	defer srv.Close()
	storeSock, traceSock := filepath.Join(dir, "store.sock"), filepath.Join(dir, "trace.sock")
	for sock, serve := range map[string]func(net.Listener) error{storeSock: srv.Serve, traceSock: srv.ServeTrace} {
		l, err := net.Listen("unix", sock)
		if err != nil {
			t.Fatal(err)
		}
		go serve(l)
	}
	c, err := netstore.Dial("unix", storeSock, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key := store.DomainPath(3) + "/k"
	if _, err := c.Watch(key, func(string, string) {}); err != nil {
		t.Fatal(err)
	}

	const n = 20
	cmd := exec.Command(toolPath, "-kind", "store.write,store.watch", "-count", strconv.Itoa(n), "unix://"+traceSock)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	// The tail attaches at a write this side cannot see, so write until it
	// has its count and exits. The lines it reads are the first the server
	// queued for it, so the server's dropping of lines that find its
	// buffer full — the writes go on until the process is reaped — never
	// reaches them.
writes:
	for i := 0; ; i++ {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("iorchestra-trace: %v\nstderr:\n%s", err, stderr.String())
			}
			break writes
		default:
		}
		if err := c.Write(key, strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}

	records, summary, ok := strings.Cut(stdout.String(), "\n\n")
	if !ok {
		t.Fatalf("no summary after the records:\n%s", stdout.String())
	}
	lines := strings.Split(records, "\n")
	if len(lines) != n {
		t.Fatalf("%d records, want %d:\n%s", len(lines), n, records)
	}
	// A stream numbers the records of one write in order: store.write,
	// then store.watch with the same value; the next write counts up. A
	// tail attaches between two holds of the store lock, so it starts at
	// a write.
	prev := -1
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) != 4 || f[1] != "dom3" {
			t.Fatalf("record %d: %q", i, line)
		}
		v, err := strconv.Atoi(strings.Trim(strings.TrimPrefix(f[3], key+"="), `"`))
		if err != nil {
			t.Fatalf("record %d: %q: %v", i, line, err)
		}
		switch kind := f[2]; {
		case kind == "store.write" && (prev < 0 || v == prev+1 && strings.Contains(lines[i-1], "store.watch")):
		case kind == "store.watch" && prev >= 0 && v == prev && strings.Contains(lines[i-1], "store.write"):
		default:
			t.Fatalf("record %d out of order after value %d: %q\n%s", i, prev, line, records)
		}
		prev = v
	}
	for _, want := range []string{"dom3:", fmt.Sprintf("%d events", n)} {
		if !strings.Contains(summary, want) {
			t.Errorf("summary does not mention %q:\n%s", want, summary)
		}
	}
}
