package migration

import "testing"

func TestEngineLatenciesMatchPaper(t *testing.T) {
	if Conservative().OneWay != 5000 {
		t.Fatal("conservative must be 5000 cycles (§II)")
	}
	if Fast().OneWay != 3000 {
		t.Fatal("fast must be 3000 cycles (Strong et al.)")
	}
	if Aggressive().OneWay != 100 {
		t.Fatal("aggressive must be 100 cycles (Brown & Tullsen)")
	}
	if Custom(777).OneWay != 777 {
		t.Fatal("custom latency not honored")
	}
}

func TestEngineValidate(t *testing.T) {
	if err := (Engine{OneWay: -1}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := Custom(0).Validate(); err != nil {
		t.Fatalf("zero latency (ideal point) rejected: %v", err)
	}
}

func TestReserveIdleCore(t *testing.T) {
	var o OSCore
	start, wait := o.Reserve(1000, 500)
	if start != 1000 || wait != 0 {
		t.Fatalf("idle reserve: start=%d wait=%d", start, wait)
	}
	if o.FreeAt() != 1500 {
		t.Fatalf("freeAt = %d", o.FreeAt())
	}
}

func TestReserveQueues(t *testing.T) {
	var o OSCore
	o.Reserve(1000, 500) // busy until 1500
	start, wait := o.Reserve(1200, 300)
	if start != 1500 || wait != 300 {
		t.Fatalf("queued reserve: start=%d wait=%d", start, wait)
	}
	if o.FreeAt() != 1800 {
		t.Fatalf("freeAt = %d", o.FreeAt())
	}
	if o.QueueDelay.Mean() != 150 { // (0+300)/2
		t.Fatalf("mean queue delay = %v", o.QueueDelay.Mean())
	}
}

func TestReserveAfterIdleGap(t *testing.T) {
	var o OSCore
	o.Reserve(100, 50)
	start, wait := o.Reserve(10_000, 10)
	if start != 10_000 || wait != 0 {
		t.Fatalf("gap reserve: start=%d wait=%d", start, wait)
	}
}

func TestResetStatsKeepsHorizon(t *testing.T) {
	var o OSCore
	o.Reserve(0, 1000)
	o.ResetStats()
	if o.Requests.Value() != 0 || o.BusyCycles.Value() != 0 {
		t.Fatal("stats not cleared")
	}
	// The core is still busy until 1000.
	start, wait := o.Reserve(500, 10)
	if start != 1000 || wait != 500 {
		t.Fatalf("horizon lost: start=%d wait=%d", start, wait)
	}
}

func TestMultiSlotOSCore(t *testing.T) {
	o := NewOSCore(2)
	if o.Slots() != 2 {
		t.Fatalf("slots = %d", o.Slots())
	}
	// Two overlapping requests fit in parallel contexts: no queuing.
	s1, w1 := o.Reserve(100, 500)
	s2, w2 := o.Reserve(150, 500)
	if w1 != 0 || w2 != 0 || s1 != 100 || s2 != 150 {
		t.Fatalf("SMT contexts queued: (%d,%d) (%d,%d)", s1, w1, s2, w2)
	}
	// The third request must wait for the earlier context (free at 600).
	s3, w3 := o.Reserve(200, 100)
	if s3 != 600 || w3 != 400 {
		t.Fatalf("third request: start=%d wait=%d, want 600/400", s3, w3)
	}
}

func TestZeroValueIsSingleSlot(t *testing.T) {
	var o OSCore
	if o.Slots() != 1 {
		t.Fatalf("zero value has %d slots", o.Slots())
	}
	o.Reserve(0, 100)
	if _, w := o.Reserve(0, 100); w != 100 {
		t.Fatal("zero-value core did not serialize")
	}
}

func TestNewOSCoreClampsSlots(t *testing.T) {
	if NewOSCore(0).Slots() != 1 || NewOSCore(-3).Slots() != 1 {
		t.Fatal("non-positive slots not clamped")
	}
}
