package main

import (
	"reflect"
	"strings"
	"testing"

	"offloadsim"
)

// TestOSCoreAxis exercises the sweep's -os-cores axis and its scalar
// companions through the flag → Spec → Config path: the whole grid must
// be rejected before any simulation starts when any K on the axis
// cannot satisfy the affinity/asymmetry flags.
func TestOSCoreAxis(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantKs  []int
		want    []offloadsim.OSCores
		wantErr string // substring of the error, "" for success
	}{
		{
			name:   "default axis collapses to the legacy model",
			args:   []string{"-os-cores", "1"},
			wantKs: []int{1},
			want:   []offloadsim.OSCores{{}},
		},
		{
			name:   "k sweep",
			args:   []string{"-os-cores", "1,2,4"},
			wantKs: []int{1, 2, 4},
			want: []offloadsim.OSCores{
				{},
				{Enabled: true, K: 2},
				{Enabled: true, K: 4},
			},
		},
		{
			name:   "scalar flags applied to every k",
			args:   []string{"-os-cores", "2,4", "-affinity", "file=1,*=0", "-async", "-depth-n", "200"},
			wantKs: []int{2, 4},
			want: []offloadsim.OSCores{
				{Enabled: true, K: 2, Affinity: "file=1,*=0", Async: true, DepthN: 200},
				{Enabled: true, K: 4, Affinity: "file=1,*=0", Async: true, DepthN: 200},
			},
		},
		{
			name:   "k=1 with rebalance still enables the cluster model",
			args:   []string{"-os-cores", "1", "-rebalance"},
			wantKs: []int{1},
			want:   []offloadsim.OSCores{{Enabled: true, K: 1, Rebalance: true}},
		},
		{
			name:   "single asymmetry factor broadcasts across the axis",
			args:   []string{"-os-cores", "2,4", "-asymmetry", "0.5"},
			wantKs: []int{2, 4},
			want: []offloadsim.OSCores{
				{Enabled: true, K: 2, Asymmetry: "0.5"},
				{Enabled: true, K: 4, Asymmetry: "0.5"},
			},
		},
		{
			name:    "empty axis",
			args:    []string{"-os-cores", ""},
			wantErr: "at least one value",
		},
		{
			name:    "non-numeric axis entry",
			args:    []string{"-os-cores", "2,many"},
			wantErr: "bad -os-cores",
		},
		{
			// Refused before the axis went through the Spec; now 0 takes
			// the default single OS core, as os_cores 0 does on the wire,
			// and its column reads the K it ran with.
			name:   "zero k",
			args:   []string{"-os-cores", "0,2"},
			wantKs: []int{1, 2},
			want:   []offloadsim.OSCores{{}, {Enabled: true, K: 2}},
		},
		{
			name:    "k beyond the cap",
			args:    []string{"-os-cores", "2,65"},
			wantErr: "OSCores.K 65 > 64",
		},
		{
			name:    "duplicate k",
			args:    []string{"-os-cores", "2,2"},
			wantErr: "duplicate -os-cores value 2",
		},
		{
			// K 0 runs as K 1, so the two points would share a row and
			// a series file name.
			name:    "zero k duplicates k=1",
			args:    []string{"-os-cores", "2,0,1"},
			wantErr: "duplicate -os-cores value 1",
		},
		{
			name:    "negative k",
			args:    []string{"-os-cores", "-1,2"},
			wantErr: "negative os_cores -1",
		},
		{
			name:    "affinity index must fit every k on the axis",
			args:    []string{"-os-cores", "4,2", "-affinity", "file=3"},
			wantErr: "core 3 outside [0,2)",
		},
		{
			name:    "unknown affinity class",
			args:    []string{"-os-cores", "2", "-affinity", "disk=0"},
			wantErr: `unknown syscall class "disk"`,
		},
		{
			name:    "asymmetry arity must fit every k on the axis",
			args:    []string{"-os-cores", "2,4", "-asymmetry", "1,0.5"},
			wantErr: "lists 2 factors for 4 OS cores",
		},
		{
			name:    "asymmetry factor out of range",
			args:    []string{"-os-cores", "2", "-asymmetry", "1,32"},
			wantErr: "asymmetry factor 32 outside",
		},
		{
			name:    "negative depth-n",
			args:    []string{"-os-cores", "2", "-depth-n", "-5"},
			wantErr: "negative OSCores.DepthN -5",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := parseArgs(tc.args)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseArgs(%q) accepted, want error containing %q", tc.args, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("parseArgs(%q) error = %q, want it to contain %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q) unexpected error: %v", tc.args, err)
			}
			// The default grid is one point, so the plan holds one
			// point per K, in axis order.
			_, points, err := pl.req.Expand()
			if err != nil {
				t.Fatal(err)
			}
			var ks []int
			var blocks []offloadsim.OSCores
			for _, p := range points {
				cfg, err := pl.config(p)
				if err != nil {
					t.Fatal(err)
				}
				ks = append(ks, max(1, p.OSCores)) // the K the point runs with
				blocks = append(blocks, cfg.OSCores)
			}
			if !reflect.DeepEqual(ks, tc.wantKs) {
				t.Errorf("os_cores column = %v, want %v", ks, tc.wantKs)
			}
			if !reflect.DeepEqual(blocks, tc.want) {
				t.Errorf("blocks = %+v, want %+v", blocks, tc.want)
			}
		})
	}
}

// TestOSCoreModeGatesExportColumn: the os_cores column appears exactly
// when the axis departs from the classic model, so legacy sweep output
// stays byte-identical.
func TestOSCoreModeGatesExportColumn(t *testing.T) {
	for args, want := range map[string]bool{
		"-os-cores 1":                false,
		"-os-cores 1,2":              true,
		"-os-cores 1 -asymmetry 0.5": true,
	} {
		pl, err := parseArgs(strings.Fields(args))
		if err != nil {
			t.Fatal(err)
		}
		if pl.withOSCores != want {
			t.Errorf("%q: os_cores column = %v, want %v", args, pl.withOSCores, want)
		}
	}
}
