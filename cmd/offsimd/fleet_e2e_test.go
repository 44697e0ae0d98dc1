package main

import (
	"bytes"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer collects a child process's output. exec copies the
// output from its own goroutine, so reads while the process runs must
// hold the same lock as those writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFleetLoadtestSLO is the out-of-process acceptance run: it builds
// the real offsimd and loadtest binaries, boots a 3-replica fleet on
// localhost with -advertise/-peers, and drives it with the closed-loop
// loadtest under -p95-max and -hit-min SLO gates. Exit 0 from loadtest
// is the assertion: jobs completed, p95 under budget, and the fleet
// cache-hit ratio above the floor (the grid repeats, so hits must
// accumulate fleet-wide).
func TestFleetLoadtestSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs daemon + loadtest binaries")
	}

	dir := t.TempDir()
	offsimd := filepath.Join(dir, "offsimd")
	loadtest := filepath.Join(dir, "loadtest")
	if out, err := exec.Command("go", "build", "-o", offsimd, ".").CombinedOutput(); err != nil {
		t.Fatalf("building offsimd: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", loadtest, "offloadsim/examples/loadtest").CombinedOutput(); err != nil {
		t.Fatalf("building loadtest: %v\n%s", err, out)
	}

	const n = 3
	addrs := make([]string, n)
	bases := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		bases[i] = "http://" + addrs[i]
		ln.Close()
	}

	var logs [n]lockedBuffer
	for i := 0; i < n; i++ {
		var peers []string
		for j, b := range bases {
			if j != i {
				peers = append(peers, b)
			}
		}
		cmd := exec.Command(offsimd,
			"-addr", addrs[i],
			"-advertise", bases[i],
			"-peers", strings.Join(peers, ","),
			"-queue", "128",
			"-workers", "2",
		)
		cmd.Stdout = &logs[i]
		cmd.Stderr = &logs[i]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		proc := cmd.Process
		t.Cleanup(func() { _ = proc.Kill() })
	}
	for i, b := range bases {
		base := b
		waitUntil(t, 10*time.Second, func() bool {
			resp, err := http.Get(base + "/healthz")
			if err != nil {
				return false
			}
			resp.Body.Close()
			return resp.StatusCode == http.StatusOK
		})
		if !strings.Contains(logs[i].String(), "fleet mode") {
			t.Fatalf("replica %d did not announce fleet mode:\n%s", i, logs[i].String())
		}
	}

	// 60 closed-loop jobs over a 6-point grid (-seeds 1): at least 54
	// submissions must be servable from the fleet cache, so a 0.5
	// hit-ratio floor has a wide margin (coalescing absorbs the races).
	lt := exec.Command(loadtest,
		"-addrs", strings.Join(bases, ","),
		"-arrival", "closed",
		"-k", "8",
		"-jobs", "60",
		"-seeds", "1",
		"-measure", "100000",
		"-p95-max", "30s",
		"-hit-min", "0.5",
	)
	out, err := lt.CombinedOutput()
	t.Logf("loadtest output:\n%s", out)
	if err != nil {
		for i := range logs {
			t.Logf("replica %d logs:\n%s", i, logs[i].String())
		}
		t.Fatalf("loadtest exited non-zero (SLO violation or failures): %v", err)
	}
	for _, want := range []string{"latency p95", "fleet cache-hit", "fleet steal rate"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("loadtest report missing %q", want)
		}
	}

	// The open-arrival discipline must also drive the fleet cleanly (a
	// short burst; no SLO gates — this checks the arrival loop, not
	// capacity).
	open := exec.Command(loadtest,
		"-addrs", strings.Join(bases, ","),
		"-arrival", "open",
		"-rate", "40",
		"-duration", "2s",
		"-seeds", "1",
		"-measure", "100000",
	)
	out, err = open.CombinedOutput()
	t.Logf("open-arrival output:\n%s", out)
	if err != nil {
		t.Fatalf("open-arrival loadtest failed: %v", err)
	}
	if !strings.Contains(string(out), "arrival             open") {
		t.Fatalf("open-arrival report did not record its discipline:\n%s", out)
	}
}
