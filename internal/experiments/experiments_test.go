package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableIRendering(t *testing.T) {
	var buf bytes.Buffer
	TableI(&buf)
	out := buf.String()
	for _, want := range []string{"Linux 2.6.30", "344", "FreeBSD Current", "513", "Windows NT"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q", want)
		}
	}
}

func TestTableIIRendering(t *testing.T) {
	var buf bytes.Buffer
	TableII(&buf)
	out := buf.String()
	for _, want := range []string{"In-Order", "Directory Based MESI", "350 Cycle", "32 KB/2-way", "1 MB/16-way"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II output missing %q", want)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	r := TableIII(QuickOptions())
	if len(r.Workloads) != 3 || len(r.Thresholds) != 4 {
		t.Fatalf("Table III dims: %dx%d", len(r.Workloads), len(r.Thresholds))
	}
	for i, name := range r.Workloads {
		row := r.Utilization[i]
		// Utilization trends down in N (higher threshold -> fewer
		// off-loads). A bounded local rise is allowed: at N=100 the
		// 5,000-cycle migration stalls inflate elapsed time, which
		// dilutes the utilization denominator.
		if row[len(row)-1] > row[0]+0.02 {
			t.Errorf("%s: utilization at N=10000 (%v) exceeds N=100 (%v)", name, row[len(row)-1], row[0])
		}
		for j := 1; j < len(row); j++ {
			if row[j] > row[j-1]+0.12 {
				t.Errorf("%s: utilization rose sharply with N: %v", name, row)
			}
		}
		for _, u := range row {
			if u < 0 || u > 1 {
				t.Errorf("%s: utilization %v out of range", name, u)
			}
		}
	}
	// Apache must use the OS core far more than derby at N=100.
	if r.Utilization[0][0] <= r.Utilization[2][0] {
		t.Errorf("apache (%v) should exceed derby (%v) at N=100",
			r.Utilization[0][0], r.Utilization[2][0])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("render missing title")
	}
}

func TestFigure1Shape(t *testing.T) {
	r := Figure1(QuickOptions())
	if len(r.Groups) != 4 {
		t.Fatalf("groups = %v", r.Groups)
	}
	for gi, g := range r.Groups {
		row := r.Slowdowns[gi]
		// Overhead must grow with per-entry cost.
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1]-0.01 {
				t.Errorf("%s: slowdown not increasing with cost: %v", g, row)
			}
		}
	}
	// Server workloads pay more than compute (more OS entries).
	apache := r.Slowdowns[0][len(r.Costs)-1]
	compute := r.Slowdowns[3][len(r.Costs)-1]
	if apache <= compute {
		t.Errorf("apache slowdown (%v) should exceed compute (%v)", apache, compute)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Error("render missing title")
	}
}

func TestFigure2Accuracy(t *testing.T) {
	r := Figure2(QuickOptions())
	if r.CAMBytes < 1800 || r.CAMBytes > 2300 {
		t.Errorf("CAM bytes = %d, want ~2KB", r.CAMBytes)
	}
	if r.DMBytes < 3000 || r.DMBytes > 3700 {
		t.Errorf("DM bytes = %d, want ~3.3KB", r.DMBytes)
	}
	if got := r.MeanExact() + r.MeanWithin5(); got < 0.35 {
		// Quick scale starves rare syscalls of training samples; the
		// full-scale number is recorded in EXPERIMENTS.md (~90%).
		t.Errorf("CAM exact+within5 = %v, want >= 0.35 at quick scale", got)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("render missing title")
	}
}

func TestFigure3Shape(t *testing.T) {
	r := Figure3(QuickOptions())
	if len(r.Thresholds) != 5 {
		t.Fatalf("thresholds = %v", r.Thresholds)
	}
	for gi, g := range r.Groups {
		server := gi < 3
		for ti, v := range r.HitRate[gi] {
			if v < 0 || v > 1.0 {
				t.Errorf("%s N=%d: binary accuracy %v out of range", g, r.Thresholds[ti], v)
			}
			// Server workloads see enough syscalls to be scored even at
			// quick scale; the compute group's handful of cold syscalls
			// are only meaningful at full scale.
			if server && v < 0.5 {
				t.Errorf("%s N=%d: binary accuracy %v implausible", g, r.Thresholds[ti], v)
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("render missing title")
	}
}

func TestFigure4QuickShape(t *testing.T) {
	// A reduced sweep to keep test time in check: verify dimensions and
	// the headline monotonicity (higher migration latency never helps).
	o := QuickOptions()
	r := Figure4(o)
	if len(r.Normalized) != 4 || len(r.Normalized[0]) != len(r.Latencies) ||
		len(r.Normalized[0][0]) != len(r.Thresholds) {
		t.Fatal("Figure 4 dimensions wrong")
	}
	// At N=0 (everything off-loads), latency 5000 must be far worse
	// than latency 0 for the server workloads.
	for gi, g := range r.Groups[:2] {
		lat0 := r.Normalized[gi][0][0]
		lat5k := r.Normalized[gi][len(r.Latencies)-1][0]
		if lat5k >= lat0 {
			t.Errorf("%s: N=0 at 5000-cycle latency (%v) not worse than at 0 (%v)", g, lat5k, lat0)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("render missing title")
	}
	// Best() returns a point within the sweep.
	norm, lat, n := r.Best(0)
	if norm <= 0 {
		t.Error("Best returned non-positive norm")
	}
	found := false
	for _, l := range r.Latencies {
		if l == lat {
			found = true
		}
	}
	if !found {
		t.Errorf("Best latency %d not in sweep", lat)
	}
	_ = n
}

func TestFigure5QuickShape(t *testing.T) {
	r := Figure5(QuickOptions())
	if len(r.Policies) != 3 {
		t.Fatalf("policies = %v", r.Policies)
	}
	for gi, g := range r.Groups {
		for pi := range r.Policies {
			for _, v := range r.Normalized[gi][pi] {
				if v <= 0 || v > 3 {
					t.Errorf("%s/%s: normalized %v implausible", g, r.Policies[pi], v)
				}
			}
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("render missing title")
	}
}

func TestScalingQuickShape(t *testing.T) {
	r := Scaling(QuickOptions())
	if len(r.UserCores) != 3 {
		t.Fatalf("cores = %v", r.UserCores)
	}
	// Queue delay must increase with core count.
	if !(r.MeanQueueDelay[2] > r.MeanQueueDelay[0]) {
		t.Errorf("queue delay did not grow: %v", r.MeanQueueDelay)
	}
	// Per-core throughput must fall from 2:1 to 4:1 as the OS core
	// saturates (at 2:1 constructive kernel interference can still win).
	if !(r.PerCoreThroughput[2] < r.PerCoreThroughput[1]) {
		t.Errorf("per-core throughput did not fall from 2:1 to 4:1: %v", r.PerCoreThroughput)
	}
	if r.SpeedupVsOne[0] != 1.0 {
		t.Errorf("self-speedup %v != 1", r.SpeedupVsOne[0])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Scaling") {
		t.Error("render missing title")
	}
}

func TestGroupProfilesResolution(t *testing.T) {
	o := DefaultOptions()
	if got := len(o.groupProfiles("compute")); got != len(o.ComputeReps) {
		t.Fatalf("compute group resolved to %d profiles", got)
	}
	if got := o.groupProfiles("apache"); len(got) != 1 || got[0].Name != "apache" {
		t.Fatal("apache group resolution wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown workload did not panic")
		}
	}()
	o.groupProfiles("nosuch")
}

func TestHalvedL2Shape(t *testing.T) {
	r := HalvedL2(QuickOptions())
	if len(r.Normalized) != len(r.Latencies) {
		t.Fatal("dimension mismatch")
	}
	// Benefit must decay with latency.
	first, last := r.Normalized[0], r.Normalized[len(r.Normalized)-1]
	if last >= first {
		t.Errorf("halved-L2 benefit did not decay with latency: %v", r.Normalized)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "512 KB") {
		t.Error("render missing title")
	}
	_ = r.CrossoverLatency() // must not panic
}

func TestPredictorAblationShape(t *testing.T) {
	r := PredictorAblation(QuickOptions())
	if len(r.Variants) != 6 || len(r.Normalized) != 6 {
		t.Fatalf("variants: %v", r.Variants)
	}
	byName := map[string]float64{}
	for i, v := range r.Variants {
		byName[v] = r.Normalized[i]
	}
	// The oracle bounds the predictor organizations (small tolerance for
	// stream-interleaving noise at quick scale).
	if byName["HI-CAM"] > byName["oracle"]*1.08 {
		t.Errorf("CAM (%v) above oracle bound (%v)", byName["HI-CAM"], byName["oracle"])
	}
	// DI pays heavy per-entry costs: it must not beat HI.
	if byName["DI"] > byName["HI-CAM"]*1.02 {
		t.Errorf("DI (%v) beat HI (%v)", byName["DI"], byName["HI-CAM"])
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "decision mechanisms") {
		t.Error("render missing title")
	}
}

func TestFigure4Charts(t *testing.T) {
	r := Figure4(QuickOptions())
	var buf bytes.Buffer
	r.RenderCharts(&buf)
	out := buf.String()
	for _, g := range r.Groups {
		if !strings.Contains(out, "["+g+"]") {
			t.Errorf("chart for %s missing", g)
		}
	}
	if !strings.Contains(out, "5000 cyc") {
		t.Error("latency legend missing")
	}
}

func TestPredictorSizing(t *testing.T) {
	r := PredictorSizing(QuickOptions())
	if len(r.Entries) != len(r.Exact) || len(r.Entries) != len(r.BinaryAt500) {
		t.Fatal("dimension mismatch")
	}
	// Accuracy must not degrade as the table grows (small tolerance for
	// replacement noise).
	for i := 1; i < len(r.Entries); i++ {
		a, b := r.Exact[i-1]+r.Within5[i-1], r.Exact[i]+r.Within5[i]
		if b < a-0.05 {
			t.Errorf("accuracy fell from %d to %d entries: %v -> %v",
				r.Entries[i-1], r.Entries[i], a, b)
		}
	}
	// The paper's claim: 200 entries is within noise of infinite history.
	if gap := r.GapTo200(); gap > 0.03 {
		t.Errorf("200-entry gap to unbounded = %.3f, want <= 0.03", gap)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "unbounded") {
		t.Error("render missing reference row")
	}
	// The rows are pinned bit for bit, so a change to how predictions
	// are scored shows as a changed number.
	for _, row := range []struct {
		name      string
		got, want []float64
	}{
		{"Exact", r.Exact, []float64{0.023255813953488372, 0.12790697674418605, 0.47674418604651164, 0.47674418604651164, 0.47674418604651164, 0.47674418604651164}},
		{"Within5", r.Within5, []float64{0.011627906976744186, 0.023255813953488372, 0.18604651162790697, 0.18604651162790697, 0.18604651162790697, 0.18604651162790697}},
		{"BinaryAt500", r.BinaryAt500, []float64{0.4418604651162791, 0.4883720930232558, 0.7558139534883721, 0.7558139534883721, 0.7558139534883721, 0.7558139534883721}},
	} {
		if len(row.got) != len(row.want) {
			t.Errorf("%s: %d rows, want %d", row.name, len(row.got), len(row.want))
			continue
		}
		for i := range row.want {
			if math.Float64bits(row.got[i]) != math.Float64bits(row.want[i]) {
				t.Errorf("%s[%d entries] = %v, want %v", row.name, r.Entries[i], row.got[i], row.want[i])
			}
		}
	}
}

func TestProtocolAblation(t *testing.T) {
	r := ProtocolAblation(QuickOptions())
	if len(r.Protocols) != 2 || r.Protocols[0] != "MESI" || r.Protocols[1] != "MOESI" {
		t.Fatalf("protocols: %v", r.Protocols)
	}
	// MOESI must not write back more than MESI on the same traffic
	// pattern (the Owned state only removes writebacks).
	if r.Writebacks[1] > r.Writebacks[0] {
		t.Errorf("MOESI wrote back more than MESI: %v", r.Writebacks)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "MOESI") {
		t.Error("render missing protocol names")
	}
}

func TestAsymmetricOSCore(t *testing.T) {
	r := AsymmetricOSCore(QuickOptions())
	if len(r.L1KB) != len(r.Normalized) {
		t.Fatal("dimension mismatch")
	}
	// The 4KB point must retain most of the 32KB point's benefit.
	if r.Normalized[len(r.Normalized)-1] < r.Normalized[0]*0.8 {
		t.Errorf("tiny OS-core L1s lost too much: %v", r.Normalized)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "4 KB") {
		t.Error("render missing rows")
	}
}

func TestConfidenceStudy(t *testing.T) {
	r := Confidence(QuickOptions(), 3)
	if len(r.Seeds) != 3 || len(r.Policies) != 3 {
		t.Fatalf("dims: %d seeds, %d policies", len(r.Seeds), len(r.Policies))
	}
	for i := range r.Policies {
		if r.Min[i] > r.Mean[i] || r.Mean[i] > r.Max[i] {
			t.Errorf("%s: mean %v outside [min %v, max %v]", r.Policies[i], r.Mean[i], r.Min[i], r.Max[i])
		}
		if r.StdDev[i] < 0 {
			t.Errorf("%s: negative stddev", r.Policies[i])
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Seed sensitivity") {
		t.Error("render missing title")
	}
}
