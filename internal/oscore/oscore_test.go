package oscore

import (
	"strings"
	"testing"

	"offloadsim/internal/syscalls"
)

func TestParseAffinity(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		k       int
		want    Affinity // ignored when wantErr
		wantErr string
	}{
		{name: "empty is round-robin", in: "", k: 2,
			want: Affinity{0, 1, 0, 1, 0, 1, 0, 1}},
		{name: "blank is round-robin", in: "  ", k: 3,
			want: Affinity{0, 1, 2, 0, 1, 2, 0, 1}},
		{name: "k1 collapses", in: "", k: 1,
			want: Affinity{}},
		{name: "explicit pair", in: "file=1,network=1", k: 2,
			want: Affinity{0, 1, 1, 1, 0, 1, 0, 1}},
		{name: "whitespace tolerated", in: " file = 1 , network = 0 ", k: 2,
			want: Affinity{0, 1, 1, 0, 0, 1, 0, 1}},
		{name: "wildcard fills unlisted", in: "*=0,trap=1", k: 2,
			want: Affinity{1, 0, 0, 0, 0, 0, 0, 0}},
		{name: "wildcard loses to explicit", in: "file=1,*=0", k: 2,
			want: Affinity{0, 0, 1, 0, 0, 0, 0, 0}},
		{name: "unknown class", in: "disk=0", k: 2, wantErr: "unknown syscall class"},
		{name: "duplicate class", in: "file=0,file=1", k: 2, wantErr: "duplicate"},
		{name: "duplicate wildcard", in: "*=0,*=1", k: 2, wantErr: "duplicate"},
		{name: "missing equals", in: "file", k: 2, wantErr: "not class=core"},
		{name: "bad index", in: "file=x", k: 2, wantErr: "bad core index"},
		{name: "index out of range", in: "file=2", k: 2, wantErr: "outside"},
		{name: "negative index", in: "file=-1", k: 2, wantErr: "outside"},
		{name: "empty entry", in: "file=0,,network=1", k: 2, wantErr: "empty affinity entry"},
		{name: "bad k", in: "", k: 0, wantErr: "k >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseAffinity(tc.in, tc.k)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseAffinity(%q, %d) err = %v, want containing %q", tc.in, tc.k, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseAffinity(%q, %d): %v", tc.in, tc.k, err)
			}
			if got != tc.want {
				t.Fatalf("ParseAffinity(%q, %d) = %v, want %v", tc.in, tc.k, got, tc.want)
			}
		})
	}
}

func TestCanonicalAffinity(t *testing.T) {
	// The default map, however spelled, canonicalizes to "".
	for _, s := range []string{"", "trap=0,identity=1", "  file = 0 , network = 1 "} {
		got, err := CanonicalAffinity(s, 2)
		if err != nil {
			t.Fatalf("CanonicalAffinity(%q, 2): %v", s, err)
		}
		if got != "" {
			t.Errorf("CanonicalAffinity(%q, 2) = %q, want \"\" (default map)", s, got)
		}
	}
	// Non-default maps render fully explicit in category order, and
	// re-canonicalizing is a fixed point.
	got, err := CanonicalAffinity("*=0,network=1", 2)
	if err != nil {
		t.Fatal(err)
	}
	want := "trap=0,identity=0,file=0,network=1,memory=0,process=0,ipc=0,time=0"
	if got != want {
		t.Fatalf("CanonicalAffinity = %q, want %q", got, want)
	}
	again, err := CanonicalAffinity(got, 2)
	if err != nil || again != got {
		t.Fatalf("canonical form not a fixed point: %q -> %q (err %v)", got, again, err)
	}
}

func TestParseAsymmetry(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		k       int
		want    []float64
		wantErr string
	}{
		{name: "empty is symmetric", in: "", k: 3, want: []float64{1, 1, 1}},
		{name: "exact list", in: "1,0.5", k: 2, want: []float64{1, 0.5}},
		{name: "broadcast single", in: "0.5", k: 3, want: []float64{0.5, 0.5, 0.5}},
		{name: "whitespace tolerated", in: " 2 , 1 ", k: 2, want: []float64{2, 1}},
		{name: "wrong count", in: "1,1,1", k: 2, wantErr: "lists 3 factors for 2"},
		{name: "not a number", in: "fast,1", k: 2, wantErr: "not a number"},
		{name: "zero factor", in: "0,1", k: 2, wantErr: "outside"},
		{name: "negative factor", in: "-1,1", k: 2, wantErr: "outside"},
		{name: "too big", in: "100", k: 1, wantErr: "outside"},
		{name: "bad k", in: "", k: 0, wantErr: "k >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseAsymmetry(tc.in, tc.k)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseAsymmetry(%q, %d) err = %v, want containing %q", tc.in, tc.k, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseAsymmetry(%q, %d): %v", tc.in, tc.k, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ParseAsymmetry(%q, %d) = %v, want %v", tc.in, tc.k, got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("ParseAsymmetry(%q, %d) = %v, want %v", tc.in, tc.k, got, tc.want)
				}
			}
		})
	}
}

func TestCanonicalAsymmetry(t *testing.T) {
	for _, s := range []string{"", "1,1", "1"} {
		got, err := CanonicalAsymmetry(s, 2)
		if err != nil {
			t.Fatalf("CanonicalAsymmetry(%q, 2): %v", s, err)
		}
		if got != "" {
			t.Errorf("CanonicalAsymmetry(%q, 2) = %q, want \"\" (symmetric)", s, got)
		}
	}
	got, err := CanonicalAsymmetry("0.5", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != "0.5,0.5" {
		t.Fatalf("CanonicalAsymmetry(\"0.5\", 2) = %q, want \"0.5,0.5\"", got)
	}
	again, err := CanonicalAsymmetry(got, 2)
	if err != nil || again != got {
		t.Fatalf("canonical form not a fixed point: %q -> %q (err %v)", got, again, err)
	}
}

func TestRouteAffinityAndRebalance(t *testing.T) {
	aff, _ := ParseAffinity("file=0,network=1", 2)
	c := NewCluster(2, 1, aff, SymmetricSpeeds(2), false, 0, 1)
	if q, reb := c.Route(syscalls.CatFile, 0); q != 0 || reb {
		t.Fatalf("no-rebalance Route(file) = %d,%v, want 0,false", q, reb)
	}
	// Load up queue 0; without rebalancing, file traffic still sticks.
	c.Reserve(0, syscalls.CatFile, 0, 1000)
	if q, _ := c.Route(syscalls.CatFile, 10); q != 0 {
		t.Fatal("rebalance disabled but request diverted")
	}

	// With rebalancing, a backlogged designated queue diverts to the
	// idle one, and ties keep the designated queue.
	c = NewCluster(2, 1, aff, SymmetricSpeeds(2), true, 0, 1)
	if q, reb := c.Route(syscalls.CatFile, 0); q != 0 || reb {
		t.Fatalf("tie should keep designated queue, got %d,%v", q, reb)
	}
	c.Reserve(0, syscalls.CatFile, 0, 1000)
	c.Reserve(0, syscalls.CatFile, 0, 1000)
	q, reb := c.Route(syscalls.CatFile, 10)
	if q != 1 || !reb {
		t.Fatalf("Route under backlog = %d,%v, want 1,true", q, reb)
	}
	if c.Rebalances() != 1 {
		t.Fatalf("Rebalances = %d, want 1", c.Rebalances())
	}
}

func TestScale(t *testing.T) {
	if got := Scale(100, 1); got != 100 {
		t.Fatalf("Scale(100, 1) = %d", got)
	}
	if got := Scale(100, 0.5); got != 200 {
		t.Fatalf("Scale(100, 0.5) = %d, want 200", got)
	}
	if got := Scale(100, 2); got != 50 {
		t.Fatalf("Scale(100, 2) = %d, want 50", got)
	}
	if got := Scale(1, 16); got != 1 {
		t.Fatalf("Scale(1, 16) = %d, want 1 (non-zero work never free)", got)
	}
	if got := Scale(0, 0.5); got != 0 {
		t.Fatalf("Scale(0, 0.5) = %d, want 0", got)
	}
}

func TestAsyncSlots(t *testing.T) {
	aff := DefaultAffinity(2)
	c := NewCluster(2, 1, aff, SymmetricSpeeds(2), false, 2, 2)
	if !c.SlotFree(0) {
		t.Fatal("fresh cluster should have free slots")
	}
	c.PushAsync(0, 500, 1)
	c.PushAsync(0, 300, 0)
	if c.SlotFree(0) {
		t.Fatal("both slots filled, SlotFree should be false")
	}
	if !c.SlotFree(1) {
		t.Fatal("slots are per user core")
	}
	if n := c.OutstandingAsync(); n != 2 {
		t.Fatalf("OutstandingAsync = %d, want 2", n)
	}
	// PopEarliest picks the min-Complete entry regardless of issue order.
	complete, core, ok := c.PopEarliest(0)
	if !ok || complete != 300 || core != 0 {
		t.Fatalf("PopEarliest = %d,%d,%v, want 300,0,true", complete, core, ok)
	}
	// TakePending drains the rest in issue order.
	rest := c.TakePending(0)
	if len(rest) != 1 || rest[0].Complete != 500 || rest[0].Core != 1 {
		t.Fatalf("TakePending = %+v, want one {500 1}", rest)
	}
	if c.PendingCount(0) != 0 {
		t.Fatal("drain left pending entries")
	}
	if _, _, ok := c.PopEarliest(0); ok {
		t.Fatal("PopEarliest on empty slots returned ok")
	}

	c.ObserveReconcile(40)
	c.ObserveReconcile(0)
	d, r, stall := c.AsyncStats()
	if d != 2 || r != 2 || stall != 40 {
		t.Fatalf("AsyncStats = %d,%d,%d, want 2,2,40", d, r, stall)
	}
}

func TestClusterStats(t *testing.T) {
	aff, _ := ParseAffinity("*=0", 2)
	c := NewCluster(2, 1, aff, []float64{1, 0.5}, false, 0, 1)
	c.Reserve(0, syscalls.CatFile, 0, 100)
	c.Reserve(0, syscalls.CatFile, 0, 100) // queues behind the first
	c.Reserve(1, syscalls.CatNetwork, 0, 50)
	if got := c.Requests(); got != 3 {
		t.Fatalf("Requests = %d, want 3", got)
	}
	if got := c.BusyCycles(); got != 250 {
		t.Fatalf("BusyCycles = %d, want 250", got)
	}
	req, depth := c.ClassStats(syscalls.CatFile)
	if req != 2 || depth != 0.5 {
		t.Fatalf("ClassStats(file) = %d,%g, want 2,0.5", req, depth)
	}
	sum, n, max := c.QueueDelay()
	if n != 3 || sum != 100 || max != 100 {
		t.Fatalf("QueueDelay = %g,%d,%g, want 100,3,100", sum, n, max)
	}
	// horizon 1000, 2 contexts total -> 250/2000
	if u := c.Utilization(1000); u != 0.125 {
		t.Fatalf("Utilization = %g, want 0.125", u)
	}
	c.ResetStats()
	if c.Requests() != 0 || c.BusyCycles() != 0 || c.Rebalances() != 0 {
		t.Fatal("ResetStats left counters")
	}
	if req, _ := c.ClassStats(syscalls.CatFile); req != 0 {
		t.Fatal("ResetStats left class counters")
	}
}

// A one-queue cluster is the paper's single OS core: utilization is busy
// cycles over the horizon, 0 without a horizon and clamped at 1.
func TestClusterUtilization(t *testing.T) {
	c := NewCluster(1, 1, Affinity{}, SymmetricSpeeds(1), false, 0, 1)
	c.Reserve(0, syscalls.CatFile, 0, 300)
	c.Reserve(0, syscalls.CatFile, 300, 200)
	if got := c.Utilization(1000); got != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if c.Utilization(0) != 0 {
		t.Fatal("zero horizon should report 0")
	}
	if c.Utilization(100) != 1 {
		t.Fatal("utilization should clamp at 1")
	}
}

// SMT contexts add capacity: the denominator is horizon x contexts.
func TestClusterUtilizationScalesWithContexts(t *testing.T) {
	c := NewCluster(1, 2, Affinity{}, SymmetricSpeeds(1), false, 0, 1)
	c.Reserve(0, syscalls.CatFile, 0, 500)
	// 500 busy cycles over a 1000-cycle horizon with 2 contexts = 25%.
	if got := c.Utilization(1000); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
}
