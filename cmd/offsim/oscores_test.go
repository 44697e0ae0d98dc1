package main

import (
	"strings"
	"testing"

	"offloadsim"
)

// TestOSCoresFlagBlock exercises the -os-cores/-affinity/-asymmetry
// flag family through the flag → Spec → Config path: every rejection
// carries the spec's or the engine's reason, and accepted combinations
// build the exact Config block the engine will see.
func TestOSCoresFlagBlock(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    offloadsim.OSCores
		wantErr string // substring of the error, "" for success
	}{
		{
			name: "defaults collapse to the legacy single-OS-core model",
			want: offloadsim.OSCores{},
		},
		{
			name: "plain k=2 cluster",
			args: []string{"-os-cores", "2"},
			want: offloadsim.OSCores{Enabled: true, K: 2},
		},
		{
			name: "k=1 with async still enables the cluster model",
			args: []string{"-async"},
			want: offloadsim.OSCores{Enabled: true, K: 1, Async: true},
		},
		{
			name: "explicit affinity and asymmetry carried through",
			args: []string{"-os-cores", "2", "-affinity", "file=0,network=1", "-asymmetry", "1,0.5"},
			want: offloadsim.OSCores{
				Enabled: true, K: 2,
				Affinity: "file=0,network=1", Asymmetry: "1,0.5",
			},
		},
		{
			name: "wildcard affinity",
			args: []string{"-os-cores", "4", "-affinity", "*=0,trap=3"},
			want: offloadsim.OSCores{Enabled: true, K: 4, Affinity: "*=0,trap=3"},
		},
		{
			name: "async slots with async",
			args: []string{"-os-cores", "2", "-async", "-async-slots", "4"},
			want: offloadsim.OSCores{Enabled: true, K: 2, Async: true, AsyncSlots: 4},
		},
		{
			name: "depth-n and rebalance carried through",
			args: []string{"-os-cores", "2", "-depth-n", "500", "-rebalance"},
			want: offloadsim.OSCores{Enabled: true, K: 2, DepthN: 500, Rebalance: true},
		},
		{
			// Refused before the flags went through the Spec; now 0 takes
			// the default single OS core, as os_cores 0 does on the wire.
			name: "zero os-cores",
			args: []string{"-os-cores", "0"},
			want: offloadsim.OSCores{},
		},
		{
			name:    "negative os-cores",
			args:    []string{"-os-cores", "-3"},
			wantErr: "negative os_cores -3",
		},
		{
			name:    "os-cores beyond the cap",
			args:    []string{"-os-cores", "65"},
			wantErr: "OSCores.K 65 > 64",
		},
		{
			name:    "affinity core index out of range",
			args:    []string{"-os-cores", "2", "-affinity", "file=2"},
			wantErr: "core 2 outside [0,2)",
		},
		{
			name:    "affinity unknown class",
			args:    []string{"-os-cores", "2", "-affinity", "disk=0"},
			wantErr: `unknown syscall class "disk"`,
		},
		{
			name:    "affinity duplicate class",
			args:    []string{"-os-cores", "2", "-affinity", "file=0,file=1"},
			wantErr: `duplicate affinity class "file"`,
		},
		{
			name:    "affinity missing equals",
			args:    []string{"-os-cores", "2", "-affinity", "file"},
			wantErr: "is not class=core",
		},
		{
			name:    "asymmetry wrong arity",
			args:    []string{"-os-cores", "4", "-asymmetry", "1,0.5"},
			wantErr: "lists 2 factors for 4 OS cores",
		},
		{
			name:    "asymmetry factor out of range",
			args:    []string{"-os-cores", "2", "-asymmetry", "1,100"},
			wantErr: "asymmetry factor 100 outside",
		},
		{
			name:    "asymmetry not a number",
			args:    []string{"-os-cores", "2", "-asymmetry", "1,fast"},
			wantErr: `asymmetry factor "fast" is not a number`,
		},
		{
			name:    "negative async slots",
			args:    []string{"-os-cores", "2", "-async", "-async-slots", "-1"},
			wantErr: "negative OSCores.AsyncSlots -1",
		},
		{
			name:    "async slots without async",
			args:    []string{"-os-cores", "2", "-async-slots", "2"},
			wantErr: "OSCores.AsyncSlots set without Async",
		},
		{
			name:    "negative depth-n",
			args:    []string{"-os-cores", "2", "-depth-n", "-1"},
			wantErr: "negative OSCores.DepthN -1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := parseArgs(tc.args)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseArgs(%q) = %+v, want error containing %q", tc.args, r.cfg.OSCores, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseArgs(%q) error = %q, want it to contain %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q) unexpected error: %v", tc.args, err)
			}
			if r.cfg.OSCores != tc.want {
				t.Fatalf("parseArgs(%q) OSCores = %+v, want %+v", tc.args, r.cfg.OSCores, tc.want)
			}
		})
	}
}

// TestOSCoresFlagBlockPassesConfigValidate: every OS-core flag vector
// the command line accepts builds a config the engine accepts too —
// Config.Validate and New — so the up-front check is never a different
// rule from the engine's.
func TestOSCoresFlagBlockPassesConfigValidate(t *testing.T) {
	accepted := [][]string{
		{"-os-cores", "1"},
		{"-os-cores", "2"},
		{"-os-cores", "4", "-affinity", "*=1", "-asymmetry", "2"},
		{"-os-cores", "2", "-async", "-async-slots", "8", "-depth-n", "100", "-rebalance"},
	}
	for _, args := range accepted {
		r, err := parseArgs(args)
		if err != nil {
			t.Fatalf("parseArgs(%q): %v", args, err)
		}
		if err := r.cfg.Validate(); err != nil {
			t.Errorf("Config.Validate rejected flag-accepted %q: %v", args, err)
		}
		if _, err := offloadsim.New(r.cfg); err != nil {
			t.Errorf("New rejected flag-accepted %q: %v", args, err)
		}
	}
}
