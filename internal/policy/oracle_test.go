package policy

import (
	"testing"

	"offloadsim/internal/syscalls"
)

func TestOracleDecidesOnActualLength(t *testing.T) {
	p := NewOracle(1000)
	d := p.Decide(syscallSeg(syscalls.Fork, 1, 22000))
	if !d.Offload || d.Overhead != 0 {
		t.Fatalf("oracle on long call: %+v", d)
	}
	if d.Predicted != 22000 {
		t.Fatalf("oracle predicted %d, want the true length", d.Predicted)
	}
	d = p.Decide(syscallSeg(syscalls.Getpid, 2, 85))
	if d.Offload {
		t.Fatalf("oracle off-loaded a short call: %+v", d)
	}
}

func TestOracleNeedsNoTraining(t *testing.T) {
	p := NewOracle(100)
	seg := syscallSeg(syscalls.Read, 3, 2850)
	d := p.Decide(seg)
	p.Observe(seg, d, seg.Instrs) // must be a no-op, not a panic
	if !d.Offload {
		t.Fatal("oracle missed a first-sight long call (no cold start)")
	}
}

func TestOracleThresholdPlumbing(t *testing.T) {
	p := NewOracle(100)
	if p.Kind() != Oracle || p.Name() != "oracle" {
		t.Fatal("identity wrong")
	}
	if p.Threshold() != 100 {
		t.Fatal("threshold lost")
	}
	p.SetThreshold(5000)
	if p.Threshold() != 5000 {
		t.Fatal("SetThreshold ignored")
	}
	d := p.Decide(syscallSeg(syscalls.Read, 1, 2850))
	if d.Offload {
		t.Fatal("2850 < 5000 should stay")
	}
	if p.Stats().Entries.Value() != 1 {
		t.Fatal("stats not recorded")
	}
}

func TestOracleViaFactory(t *testing.T) {
	p, err := New(Oracle, 0, 500, DefaultOverheads(), false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind() != Oracle {
		t.Fatalf("factory built %v", p.Kind())
	}
	// The engine accessor must handle the oracle gracefully.
	if Engine(p) != nil {
		t.Fatal("oracle has no engine")
	}
}

func TestKindStringIncludesOracle(t *testing.T) {
	if Oracle.String() != "oracle" {
		t.Fatalf("Oracle.String() = %q", Oracle.String())
	}
}
