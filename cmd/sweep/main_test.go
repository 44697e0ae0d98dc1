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
		{"-parallel -workers 2", "69798f436f383cbd2baf0632a97c3c9cc6fdf3a48a3c2e52aec5c7c44ba8c18f"},
		{"-sampled -parallel", "fcca53ee2ba71a0af0c649d5e05ecff0ae47324b11de6a416ed04874b7ecc317"},
		{"-n 100,1000", "bcc8ffd0e4da2e8fdeaad520af23116f9b9d6472ebf93aadeaad69aca4af1d53"},
	}
	for _, tc := range cases {
		pl, err := parseArgs(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("parseArgs(%q): %v", tc.args, err)
		}
		h := sha256.New()
		cfgs := make([]offloadsim.Config, 0, len(pl.points)+len(pl.baselines))
		for _, p := range pl.points {
			cfgs = append(cfgs, p.cfg)
		}
		for _, cfg := range append(cfgs, pl.baselines...) {
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
		"-parallel -os-cores 2":                  "Parallel cannot be combined with OSCores",
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
