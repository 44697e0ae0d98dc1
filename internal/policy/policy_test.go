package policy

import (
	"testing"

	"offloadsim/internal/core"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/trace"
)

func syscallSeg(id syscalls.ID, astate uint64, instrs int) *trace.Segment {
	return &trace.Segment{Kind: trace.SyscallSegment, Sys: id, AState: astate,
		Instrs: instrs, NominalInstrs: instrs}
}

func trapSeg(astate uint64) *trace.Segment {
	return &trace.Segment{Kind: trace.TrapSegment, Sys: syscalls.SpillTrap,
		AState: astate, Instrs: 18, NominalInstrs: 18}
}

func TestBaselineNeverOffloads(t *testing.T) {
	p := NewBaseline()
	for i := 0; i < 100; i++ {
		d := p.Decide(syscallSeg(syscalls.Fork, uint64(i), 20000))
		if d.Offload || d.Overhead != 0 {
			t.Fatalf("baseline decided %+v", d)
		}
	}
	if p.Stats().Entries.Value() != 100 || p.Stats().Offloads.Value() != 0 {
		t.Fatal("baseline stats wrong")
	}
}

func TestStaticSelectsLongSyscalls(t *testing.T) {
	ov := DefaultOverheads()
	p := NewStatic(5000, ov) // instruments mean length >= 10000
	// fork (mean 24500) must be instrumented; getpid must not.
	d := p.Decide(syscallSeg(syscalls.Fork, 1, 22000))
	if !d.Offload || d.Overhead != ov.SI {
		t.Fatalf("fork under SI: %+v", d)
	}
	d = p.Decide(syscallSeg(syscalls.Getpid, 2, 85))
	if d.Offload || d.Overhead != 0 {
		t.Fatalf("getpid under SI: %+v (uninstrumented entries are free)", d)
	}
}

func TestStaticIgnoresTraps(t *testing.T) {
	p := NewStatic(10, DefaultOverheads()) // threshold 20: everything qualifies
	d := p.Decide(trapSeg(9))
	if d.Offload || d.Overhead != 0 {
		t.Fatalf("SI instrumented a trap handler: %+v", d)
	}
}

func TestStaticSetShrinksWithLatency(t *testing.T) {
	small := InstrumentedCount(NewStatic(100, DefaultOverheads()))
	large := InstrumentedCount(NewStatic(5000, DefaultOverheads()))
	if small <= large {
		t.Fatalf("instrumented set should shrink with latency: %d vs %d", small, large)
	}
	if large == 0 {
		t.Fatal("conservative SI should still instrument fork/execve-class calls")
	}
}

func TestDynamicPaysOverheadAlways(t *testing.T) {
	ov := DefaultOverheads()
	p := NewDynamic(core.NewCAMPredictor(32), 1000, ov)
	// Unknown AState, global prediction 0 -> stay; overhead still paid.
	d := p.Decide(syscallSeg(syscalls.Getpid, 11, 85))
	if d.Offload {
		t.Fatal("cold DI should not offload")
	}
	if d.Overhead != ov.DI {
		t.Fatalf("DI overhead = %d, want %d even on stay", d.Overhead, ov.DI)
	}
	// Traps are instrumented too.
	d = p.Decide(trapSeg(12))
	if d.Overhead != ov.DI {
		t.Fatal("DI must instrument all entry points, including traps")
	}
}

func TestHardwareSingleCycle(t *testing.T) {
	ov := DefaultOverheads()
	p := NewHardware(core.NewCAMPredictor(32), 1000, ov)
	d := p.Decide(syscallSeg(syscalls.Read, 5, 3000))
	if d.Overhead != 1 {
		t.Fatalf("HI overhead = %d, want 1", d.Overhead)
	}
}

func TestPredictorPolicyLearnsAndOffloads(t *testing.T) {
	p := NewHardware(core.NewCAMPredictor(32), 1000, DefaultOverheads())
	seg := syscallSeg(syscalls.Fork, 77, 22000)
	// First decision is cold; train twice.
	for i := 0; i < 3; i++ {
		d := p.Decide(seg)
		p.Observe(seg, d, seg.Instrs)
	}
	d := p.Decide(seg)
	if !d.Offload {
		t.Fatalf("trained policy did not offload a 22k-instruction call: %+v", d)
	}
	if d.Predicted != 22000 {
		t.Fatalf("prediction = %d, want 22000", d.Predicted)
	}
}

func TestThresholdPlumbing(t *testing.T) {
	p := NewHardware(core.NewCAMPredictor(32), 1000, DefaultOverheads())
	if p.Threshold() != 1000 {
		t.Fatal("initial threshold lost")
	}
	p.SetThreshold(100)
	if p.Threshold() != 100 {
		t.Fatal("SetThreshold ignored")
	}
	// Baseline and SI have no threshold but must not panic.
	for _, q := range []Policy{NewBaseline(), NewStatic(5000, DefaultOverheads())} {
		q.SetThreshold(42)
		if q.Threshold() != 0 {
			t.Fatalf("%s reports threshold %d", q.Name(), q.Threshold())
		}
	}
}

func TestEngineAccessor(t *testing.T) {
	hi := NewHardware(core.NewCAMPredictor(8), 500, DefaultOverheads())
	if Engine(hi) == nil {
		t.Fatal("Engine(HI) returned nil")
	}
	if Engine(NewBaseline()) != nil {
		t.Fatal("Engine(baseline) should be nil")
	}
}

func TestNewFactory(t *testing.T) {
	for _, k := range []Kind{Baseline, StaticInstrumentation, DynamicInstrumentation, HardwarePredictor} {
		p, err := New(k, 5000, 1000, DefaultOverheads(), false)
		if err != nil {
			t.Fatalf("New(%v): %v", k, err)
		}
		if p.Kind() != k {
			t.Fatalf("New(%v) built %v", k, p.Kind())
		}
	}
	if _, err := New(Kind(99), 0, 0, DefaultOverheads(), false); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := New(Baseline, 0, 0, Overheads{SI: -1}, false); err == nil {
		t.Fatal("invalid overheads accepted")
	}
}

func TestOffloadRateStat(t *testing.T) {
	p := NewStatic(5000, DefaultOverheads())
	p.Decide(syscallSeg(syscalls.Fork, 1, 22000)) // offload
	p.Decide(syscallSeg(syscalls.Getpid, 2, 85))  // stay
	p.Decide(syscallSeg(syscalls.Getpid, 3, 85))  // stay
	if got := p.Stats().OffloadRate(); got != 1.0/3 {
		t.Fatalf("offload rate = %v", got)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Baseline: "baseline", StaticInstrumentation: "SI",
		DynamicInstrumentation: "DI", HardwarePredictor: "HI"}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}
