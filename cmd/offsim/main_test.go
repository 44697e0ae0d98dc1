package main

import (
	"strings"
	"testing"

	"offloadsim"
)

// TestFlagConfigKeysPinned pins the canonical key of the config each
// flag vector builds. The literals were computed by the flag handling
// that predates Spec (per-flag checks and a hand-built Config), so the
// test proves the move onto offloadsim.Spec kept every config.
func TestFlagConfigKeysPinned(t *testing.T) {
	cases := []struct {
		args string
		key  string
	}{
		{"", "270e5e6286d67b5b0c7e407c48e505b4f5996fdb7918c46f4f9b71ed2cf51ea8"},
		{"-workload specjbb -policy DI -n 250 -latency 5000 -dynamic -warmup 200000 -measure 400000",
			"1612a94104cbddbb4a22af90f5dbd09a741ddedee6269ea836b15bbd3b451b3d"},
		{"-cores 4 -os-cores 2 -affinity file=0,*=1 -asymmetry 1,0.5 -async -async-slots 4 -depth-n 200 -rebalance",
			"8fa0a213af619ed20ec0503e6ff7ef37469ef29bd2c92d7e43f26b33381ffa01"},
		{"-os-cores 1 -depth-n 500", "15b10a5b4f4e76ad9042c51b7757ce3463bddc8778968fce683ff22ea518a57d"},
		{"-moesi -os-l1 16 -os-slots 2 -dm-predictor", "dcef2095e9f6746d956c0f7485b2eef0ce6d6da34977854884b09da83a78ddff"},
		{"-policy SI -instrument-only -seed 7 -baseline-compare -energy",
			"b418de6640570241c20763d738c98565e032b7b411411802cd114affdd58fa0b"},
	}
	for _, tc := range cases {
		r, err := parseArgs(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("parseArgs(%q): %v", tc.args, err)
		}
		key, err := offloadsim.ConfigKey(r.cfg)
		if err != nil {
			t.Fatalf("ConfigKey(%q): %v", tc.args, err)
		}
		if key != tc.key {
			t.Errorf("%q: key %s, want %s", tc.args, key, tc.key)
		}
	}
}

// TestFlagErrorsBeforeSimulation: invalid flags fail in parseArgs —
// before anything is simulated — with the spec's reason.
func TestFlagErrorsBeforeSimulation(t *testing.T) {
	for args, want := range map[string]string{
		"-n -5":                               "negative threshold -5",
		"-latency -1":                         "negative latency_cycles -1",
		"-cores -1":                           "negative cores -1",
		"-os-slots 65":                        "os_slots 65 outside [0, 64]",
		"-os-l1 64":                           "os_l1_kb 64 outside [0, 32]",
		"-measure 0":                          "measure_instrs must be positive",
		"-workload nope":                      `unknown workload "nope"`,
		"-policy nope":                        `unknown policy "nope"`,
		"-cores 64":                           "exceed 64 coherence nodes",
		"-trace-format xml":                   "-trace-format must be chrome or jsonl",
		"-timeseries x.csv -trace-interval 0": "-trace-interval must be positive",
		"extra":                               "unexpected arguments: extra",
	} {
		if _, err := parseArgs(strings.Fields(args)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseArgs(%q) error = %v, want it to contain %q", args, err, want)
		}
	}
}
