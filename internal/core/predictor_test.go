package core

import (
	"testing"
	"testing/quick"

	"offloadsim/internal/rng"
)

func predictors(t *testing.T) map[string]Predictor {
	t.Helper()
	return map[string]Predictor{
		"cam": NewCAMPredictor(DefaultCAMEntries),
		"dm":  NewDirectMappedPredictor(DefaultDirectMappedEntries),
	}
}

func TestWithinFivePercent(t *testing.T) {
	cases := []struct {
		pred, actual int
		want         bool
	}{
		{100, 100, true},
		{105, 100, true},
		{95, 100, true},
		{106, 100, false},
		{94, 100, false},
		{0, 0, true},
		{1, 0, false},
		{1000, 1050, true},
		{1000, 1053, true}, // |diff|=53, 53*20=1060 > 1053? 1060>1053 -> false... see below
	}
	// Recompute the last case precisely: 53*20 = 1060 > 1053 so false.
	cases[len(cases)-1].want = false
	for _, c := range cases {
		if got := withinFivePercent(c.pred, c.actual); got != c.want {
			t.Fatalf("withinFivePercent(%d,%d) = %v, want %v", c.pred, c.actual, got, c.want)
		}
	}
}

func TestLearnsStableRunLength(t *testing.T) {
	for name, p := range predictors(t) {
		const astate = 0xDEADBEEF
		// Train twice so confidence rises above zero.
		p.Update(astate, 500)
		p.Update(astate, 500)
		got := p.Predict(astate)
		if got.Length != 500 || got.Source != LocalPrediction {
			t.Fatalf("%s: predicted %+v, want local 500", name, got)
		}
	}
}

func TestGlobalFallbackOnUnknownAState(t *testing.T) {
	for name, p := range predictors(t) {
		p.Update(1, 100)
		p.Update(2, 200)
		p.Update(3, 300)
		got := p.Predict(0xFFFF_0000_1111)
		if got.Source != GlobalPrediction {
			t.Fatalf("%s: unknown AState used %v", name, got.Source)
		}
		if got.Length != 200 {
			t.Fatalf("%s: global prediction %d, want mean(100,200,300)=200", name, got.Length)
		}
	}
}

func TestGlobalWindowSlides(t *testing.T) {
	p := NewCAMPredictor(8)
	for _, l := range []int{10, 20, 30, 40} { // window keeps 20,30,40
		p.Update(uint64(l), l)
	}
	got := p.Predict(0x9999)
	if got.Length != 30 {
		t.Fatalf("global = %d, want mean(20,30,40)=30", got.Length)
	}
}

func TestConfidenceDropsToGlobalOnNoisyEntry(t *testing.T) {
	p := NewCAMPredictor(8)
	const astate = 42
	// Allocation sets conf=2; two wildly different lengths drop it to 0.
	p.Update(astate, 100)
	p.Update(astate, 10000)
	p.Update(astate, 100)
	// Entry now has conf 0 -> prediction should be global, not local.
	p.Update(1, 70)
	p.Update(2, 70)
	p.Update(3, 70)
	got := p.Predict(astate)
	if got.Source != GlobalPrediction {
		t.Fatalf("low-confidence entry should fall back to global, got %v", got.Source)
	}
	if got.Length != 70 {
		t.Fatalf("global length = %d, want 70", got.Length)
	}
}

func TestConfidenceRecovers(t *testing.T) {
	p := NewCAMPredictor(8)
	const astate = 42
	p.Update(astate, 100)
	p.Update(astate, 10000) // conf 2 -> 1
	p.Update(astate, 100)   // conf 1 -> 0
	p.Update(astate, 100)   // within 5% of stored 100 -> conf 1
	got := p.Predict(astate)
	if got.Source != LocalPrediction || got.Length != 100 {
		t.Fatalf("recovered entry should predict locally, got %+v", got)
	}
}

func TestCAMLRUReplacement(t *testing.T) {
	p := NewCAMPredictor(2)
	p.Update(1, 100)
	p.Update(1, 100) // conf up
	p.Update(2, 200)
	p.Update(2, 200)
	p.Predict(1) // touch 1; 2 becomes LRU
	p.Update(3, 300)
	p.Update(3, 300) // should have evicted astate 2
	if got := p.Predict(1); got.Source != LocalPrediction || got.Length != 100 {
		t.Fatalf("astate 1 evicted wrongly: %+v", got)
	}
	if got := p.Predict(3); got.Source != LocalPrediction || got.Length != 300 {
		t.Fatalf("astate 3 missing: %+v", got)
	}
	if got := p.Predict(2); got.Source != GlobalPrediction {
		t.Fatalf("astate 2 should have been evicted, got %+v", got)
	}
}

func TestDirectMappedAliasing(t *testing.T) {
	p := NewDirectMappedPredictor(10)
	// 5 and 15 alias (both mod 10 == 5): training one perturbs the other,
	// which is the documented cost of the tag-less organization.
	p.Update(5, 100)
	p.Update(5, 100)
	p.Update(15, 9000)
	p.Update(15, 9000)
	got := p.Predict(5)
	if got.Source == LocalPrediction && got.Length == 100 {
		t.Fatal("tag-less table cannot distinguish aliasing AStates")
	}
}

func TestStorageBudgetsMatchPaper(t *testing.T) {
	cam := NewCAMPredictor(DefaultCAMEntries)
	bytes := cam.StorageBits() / 8
	// §III-A: "requires only 2 KB storage space".
	if bytes < 1800 || bytes > 2300 {
		t.Fatalf("CAM storage = %d bytes, want ~2KB", bytes)
	}
	dm := NewDirectMappedPredictor(DefaultDirectMappedEntries)
	bytes = dm.StorageBits() / 8
	// §III-A: "a storage requirement of 3.3 KB".
	if bytes < 3000 || bytes > 3700 {
		t.Fatalf("direct-mapped storage = %d bytes, want ~3.3KB", bytes)
	}
}

func TestAccuracyAccounting(t *testing.T) {
	p := NewCAMPredictor(8)
	// Build a confident entry at 1000.
	p.Update(7, 1000)
	p.Update(7, 1000)
	e := NewEngine(p, 500)
	e.Train(7, e.Decide(7), 1000, true) // exact
	e.Train(7, e.Decide(7), 1020, true) // within 5%
	e.Train(7, e.Decide(7), 5000, true) // miss, undershoot
	acc := &e.Syscalls
	if acc.Predictions() != 3 {
		t.Fatalf("predictions = %d, want 3", acc.Predictions())
	}
	if acc.ExactRate() != 1.0/3 {
		t.Fatalf("exact rate = %v", acc.ExactRate())
	}
	if acc.Within5Rate() != 1.0/3 {
		t.Fatalf("within5 rate = %v", acc.Within5Rate())
	}
	if acc.MissRate() != 1.0/3 {
		t.Fatalf("miss rate = %v", acc.MissRate())
	}
	if acc.UnderShootShare() != 1.0 {
		t.Fatalf("undershoot share = %v, want 1", acc.UnderShootShare())
	}
}

func TestEngineDecision(t *testing.T) {
	p := NewCAMPredictor(8)
	p.Update(1, 5000)
	p.Update(1, 5000)
	e := NewEngine(p, 1000)
	d := e.Decide(1)
	if !d.Offload {
		t.Fatalf("predicted 5000 > N=1000 should off-load: %+v", d)
	}
	e.SetThreshold(10000)
	d = e.Decide(1)
	if d.Offload {
		t.Fatalf("predicted 5000 < N=10000 should stay: %+v", d)
	}
}

func TestEngineBinaryAccuracy(t *testing.T) {
	p := NewCAMPredictor(8)
	e := NewEngine(p, 500)
	// Train a stable long entry, a system call every other time;
	// decisions should converge to correct.
	const astate = 3
	for i := 0; i < 20; i++ {
		d := e.Decide(astate)
		e.Train(astate, d, 2000, i%2 == 0)
	}
	if acc := e.All.BinaryRate(); acc < 0.9 {
		t.Fatalf("binary accuracy on a stable stream = %v, want >= 0.9", acc)
	}
	if e.All.Predictions() != 20 {
		t.Fatalf("decisions = %d", e.All.Predictions())
	}
	if e.Syscalls.Predictions() != 10 {
		t.Fatalf("syscall decisions = %d, want 10", e.Syscalls.Predictions())
	}
	e.ResetBooks()
	if e.All.Predictions() != 0 || e.Syscalls.Predictions() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestPredictorAccuracyOnSyntheticMix(t *testing.T) {
	// A mixture of mostly-deterministic AStates should produce the high
	// exact+within5 accuracy the paper reports (73.6% + 24.8%).
	src := rng.New(99)
	e := NewEngine(NewCAMPredictor(DefaultCAMEntries), 0)
	lengths := map[uint64]int{}
	for i := 0; i < 50; i++ {
		lengths[uint64(i+1)] = 50 + 400*i
	}
	for i := 0; i < 30000; i++ {
		a := uint64(src.Intn(50) + 1)
		nominal := lengths[a]
		actual := nominal
		if src.Bool(0.2) { // 20% jitter within ±5%
			actual = int(float64(nominal) * (0.95 + 0.1*src.Float64()))
		}
		e.Train(a, e.Decide(a), actual, true)
	}
	acc := &e.Syscalls
	good := acc.ExactRate() + acc.Within5Rate()
	if good < 0.90 {
		t.Fatalf("exact+within5 = %v, want >= 0.90 on a mostly-deterministic mix", good)
	}
}

func TestNewPredictorPanicsOnBadSize(t *testing.T) {
	for _, f := range []func(){
		func() { NewCAMPredictor(0) },
		func() { NewDirectMappedPredictor(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("zero-entry predictor accepted")
				}
			}()
			f()
		}()
	}
}

// Property: after two consecutive identical updates, both organizations
// predict that value locally (absent aliasing in the CAM, which cannot
// alias).
func TestQuickCAMLearnsAnyAState(t *testing.T) {
	f := func(astate uint64, lenRaw uint16) bool {
		length := int(lenRaw) + 1
		p := NewCAMPredictor(16)
		p.Update(astate, length)
		p.Update(astate, length)
		got := p.Predict(astate)
		return got.Source == LocalPrediction && got.Length == length
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions never panic and lengths are non-negative for
// arbitrary update streams.
func TestQuickPredictNonNegative(t *testing.T) {
	f := func(ops []uint32) bool {
		cam := NewCAMPredictor(4)
		dm := NewDirectMappedPredictor(7)
		for _, op := range ops {
			a := uint64(op % 64)
			l := int(op>>8) % 10000
			for _, p := range []Predictor{cam, dm} {
				if got := p.Predict(a); got.Length < 0 {
					return false
				}
				p.Update(a, l)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
