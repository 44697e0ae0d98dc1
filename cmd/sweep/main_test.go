package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"offloadsim"
	"offloadsim/internal/cluster"
	"offloadsim/internal/server"
)

// TestFlagConfigKeysPinned pins every config each flag vector builds: a
// SHA-256 over the canonical keys of the grid points, in row order,
// then of the baselines, in workload order. The literals were computed
// by the grid code that predates SweepRequest expansion (its own loops,
// defaults and per-workload base configs), so the test proves the move
// kept every config.
func TestFlagConfigKeysPinned(t *testing.T) {
	cases := []struct {
		args string
		sum  string
	}{
		{"-workloads apache,derby -policies HI,SI -n 100,1000 -latencies 100,5000",
			"a3e652b84917b557c97d4e5a2da6717cc851609028471e28cb24fcc56234d9a9"},
		{"-os-cores 1,2,4 -async -energy", "8f3b8ca908acfbc8e26aaae22fb96d3f87dc65cd8ba17fa6c863a674d48e77fb"},
		// Both collapse to the classic single-OS-core model.
		{"-os-cores 1 -rebalance", "27982696dd43275ec4f105c744412c45929df39f4ecafe88c6ad92af1dfafde8"},
		{"-os-cores 1 -affinity file=0", "27982696dd43275ec4f105c744412c45929df39f4ecafe88c6ad92af1dfafde8"},
		{"-sampled -replicas 2", "977edebd9481f50a0768d798c816dafd17dbf5e660eaa48db97e80e6d88b48fe"},
		{"-n 100,1000", "bcc8ffd0e4da2e8fdeaad520af23116f9b9d6472ebf93aadeaad69aca4af1d53"},
	}
	for _, tc := range cases {
		pl, err := parseArgs(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("parseArgs(%q): %v", tc.args, err)
		}
		_, points, err := pl.req.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range pl.req.Workloads {
			points = append(points, cluster.BaselinePoint(wl))
		}
		h := sha256.New()
		for _, p := range points {
			cfg, err := pl.config(p)
			if err != nil {
				t.Fatal(err)
			}
			key, err := offloadsim.ConfigKey(cfg)
			if err != nil {
				t.Fatalf("ConfigKey(%q): %v", tc.args, err)
			}
			fmt.Fprintln(h, key)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != tc.sum {
			t.Errorf("%q: key digest %s, want %s", tc.args, sum, tc.sum)
		}
	}
}

// TestOutputPinned pins the SHA-256 of the whole output for three flag
// vectors: a baseline-policy point on the os_cores axis with energy
// columns, a workload listed twice in JSON with energy columns, and the
// OS-core companion flags. The literals are the stdout digests of the
// runner that predates the coordinator, so they prove the move kept
// every byte.
func TestOutputPinned(t *testing.T) {
	for args, want := range map[string]string{
		"-workloads apache -policies baseline,HI -n 100 -os-cores 1,2,4 -async -energy -measure 60000 -warmup 20000":                                           "3747ffc8e649a1e28b5f8edd4e2d7aef3338a8ae2932bccb96ce4310270051b6",
		"-workloads apache,apache -policies HI -n 100 -latencies 100 -measure 60000 -warmup 0 -format json -energy":                                            "9885f0d0e5e5f41f65ca1b979c9cd66280bfb42f9a32ea838e6d88fcf0c1b992",
		"-workloads apache,derby -policies HI -n 100 -os-cores 2,4 -affinity file=1,*=0 -asymmetry 0.5 -depth-n 200 -measure 60000 -warmup 20000 -format json": "cd6e510b2a8a51c7843f9ec26b755d4fe95cfd858b744ebc5145745a6d4b5d20",
	} {
		pl, err := parseArgs(strings.Fields(args))
		if err != nil {
			t.Fatalf("parseArgs(%q): %v", args, err)
		}
		out, err := rows(pl)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		var buf bytes.Buffer
		if err := pl.write(&buf, out); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%q: output digest %x, want %s\n%s", args, sum, want, buf.Bytes())
		}
	}
}

// TestSeriesFilePerOSCoreCount: with the os_cores column on, each K
// writes its own interval series, named after its K, and the K=2 file
// holds the bytes a sweep of K=2 alone writes. Without the column the
// name carries no K.
func TestSeriesFilePerOSCoreCount(t *testing.T) {
	sweep := func(osCores string) (dir string, names []string) {
		dir = t.TempDir()
		pl, err := parseArgs(strings.Fields("-workloads apache -policies HI -n 100 -latencies 100" +
			" -measure 100000 -warmup 0 -workers 2 -os-cores " + osCores + " -telemetry-dir " + dir))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows(pl); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return dir, names
	}
	if _, names := sweep("1"); !reflect.DeepEqual(names, []string{"apache_HI_n100_lat100.csv"}) {
		t.Errorf("-os-cores 1 wrote %q", names)
	}
	axis, names := sweep("1,2")
	if want := []string{"apache_HI_n100_lat100_k1.csv", "apache_HI_n100_lat100_k2.csv"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("-os-cores 1,2 wrote %q, want %q", names, want)
	}
	alone, names := sweep("2")
	if !reflect.DeepEqual(names, []string{"apache_HI_n100_lat100_k2.csv"}) {
		t.Fatalf("-os-cores 2 wrote %q", names)
	}
	a, err := os.ReadFile(filepath.Join(axis, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(alone, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("K=2 series on the 1,2 axis (%d bytes) differs from K=2 alone (%d bytes)", len(a), len(b))
	}
}

// TestFlagErrorsBeforeSimulation: invalid flags fail in parseArgs —
// before anything is simulated, so a typo never throws away a finished
// grid — with the fleet's or the spec's reason.
func TestFlagErrorsBeforeSimulation(t *testing.T) {
	for args, want := range map[string]string{
		"-format xml":                            "format must be csv or json",
		"-workers 0":                             "-workers must be >= 1",
		"-n 1,x":                                 "bad -n",
		"-latencies x":                           "bad -latencies",
		"-n -1":                                  "thresholds must be >= 0 (got -1)",
		"-latencies -1":                          "latencies must be >= 0 (got -1)",
		"-measure 0":                             "measure_instrs must be positive",
		"-workloads ,":                           "workloads must be non-empty",
		"-workloads nope":                        `unknown workload "nope"`,
		"-policies HI,nope":                      `unknown policy "nope"`,
		"-replicas 2":                            `replicas 2 requires mode "sampled"`,
		"-sampled -replicas 65":                  "replicas 65 outside [0, 64]",
		"-sampled -telemetry-dir d":              "-telemetry-dir requires cycle-accurate execution",
		"-telemetry-dir d -telemetry-interval 0": "-telemetry-interval must be positive",
		"-parallel -os-cores 2":                  "flag provided but not defined: -parallel",
		// 65 thresholds × 64 latencies, before the -os-cores axis.
		"-n " + strings.Repeat("1,", 65) + " -latencies " + strings.Repeat("1,", 64): "exceeds 4096 points",
	} {
		_, err := parseArgs(strings.Fields(args))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseArgs(%.40q) error = %v, want it to contain %q", args, err, want)
		}
		if err != nil && strings.HasPrefix(err.Error(), "sweep:") {
			t.Errorf("parseArgs(%.40q) error %q repeats the prefix main adds", args, err)
		}
	}
}

// TestSweepMatchesFleet runs one grid two ways — through cmd/sweep's
// row path and through POST /v1/sweeps on an in-process offsimd — and
// requires byte-identical row JSON, normalized throughput included.
func TestSweepMatchesFleet(t *testing.T) {
	req := cluster.SweepRequest{
		Workloads:  []string{"apache", "derby"},
		Policies:   []string{"HI", "SI"},
		Thresholds: []int{100},
		Latencies:  []int{1000},
	}
	warmup, measure := uint64(20_000), uint64(60_000)
	req.WarmupInstrs, req.MeasureInstrs = &warmup, &measure

	pl, err := parseArgs([]string{"-workloads", "apache,derby", "-policies", "HI,SI",
		"-n", "100", "-latencies", "1000", "-warmup", "20000", "-measure", "60000", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	offline, err := rows(pl)
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.Options{Workers: 2})
	srv.Start()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/sweeps: HTTP %d", resp.StatusCode)
	}
	var fleet []json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Index  *int            `json:"index"`
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Row    json.RawMessage `json:"row"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("decoding %q: %v", sc.Text(), err)
		}
		if line.Index == nil {
			continue // header or trailing progress line
		}
		if line.Status != "done" {
			t.Fatalf("fleet point %d: %s %s", *line.Index, line.Status, line.Error)
		}
		fleet = append(fleet, line.Row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(fleet) != len(offline) || len(offline) != 4 {
		t.Fatalf("fleet streamed %d rows, cmd/sweep built %d, want 4", len(fleet), len(offline))
	}
	for i, row := range offline {
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, fleet[i]) {
			t.Errorf("row %d differs:\ncmd/sweep %s\nfleet     %s", i, b, fleet[i])
		}
		if row.Normalized == 0 {
			t.Errorf("row %d carries no normalized throughput", i)
		}
	}
}
