package sim

import (
	"testing"

	"offloadsim/internal/coherence"
	"offloadsim/internal/core"
	"offloadsim/internal/cpu"
	"offloadsim/internal/migration"
	"offloadsim/internal/policy"
	"offloadsim/internal/workloads"
)

func apacheProfile(t *testing.T) *workloads.Profile {
	t.Helper()
	p, ok := workloads.ByName("apache")
	if !ok {
		t.Fatal("apache profile missing")
	}
	return p
}

func mustKey(t *testing.T, c Config) string {
	t.Helper()
	k, err := CanonicalKey(c)
	if err != nil {
		t.Fatalf("CanonicalKey: %v", err)
	}
	return k
}

// The same logical configuration written in different forms must produce
// one key: default-filled vs zero coherence, uniform Workloads slice vs
// single Workload, named vs custom migration engine of equal latency,
// stale tuner state with DynamicN off.
func TestCanonicalKeyEquivalentForms(t *testing.T) {
	prof := apacheProfile(t)
	base := DefaultConfig(prof)
	want := mustKey(t, base)

	t.Run("zero coherence equals default coherence", func(t *testing.T) {
		c := DefaultConfig(prof)
		c.Coherence = coherence.Config{}
		if got := mustKey(t, c); got != want {
			t.Errorf("zero-coherence key %s != default key %s", got, want)
		}
	})

	t.Run("stale NumNodes is ignored", func(t *testing.T) {
		c := DefaultConfig(prof)
		c.Coherence.NumNodes = 7 // New overrides it from the core count
		if got := mustKey(t, c); got != want {
			t.Errorf("NumNodes=7 key %s != default key %s", got, want)
		}
	})

	t.Run("uniform workloads slice collapses", func(t *testing.T) {
		c := DefaultConfig(prof)
		c.UserCores = 2
		c.Coherence = coherence.DefaultConfig()
		k1 := mustKey(t, c)

		c2 := c
		c2.Workload = nil
		c2.Workloads = []*workloads.Profile{prof, prof}
		if k2 := mustKey(t, c2); k2 != k1 {
			t.Errorf("uniform slice key %s != single-workload key %s", k2, k1)
		}
	})

	t.Run("migration engine name does not matter", func(t *testing.T) {
		c := DefaultConfig(prof)
		c.Migration = migration.Aggressive() // 100 cycles
		k1 := mustKey(t, c)
		c.Migration = migration.Custom(100)
		if k2 := mustKey(t, c); k2 != k1 {
			t.Errorf("aggressive key %s != custom-100 key %s", k2, k1)
		}
	})

	t.Run("tuner ignored when DynamicN off", func(t *testing.T) {
		c := DefaultConfig(prof)
		c.Tuner = core.DefaultTunerConfig() // set but unused
		if got := mustKey(t, c); got != want {
			t.Errorf("stale-tuner key %s != default key %s", got, want)
		}
	})

	t.Run("zero OSCoreSlots equals one", func(t *testing.T) {
		a := DefaultConfig(prof)
		a.OSCoreSlots = 0
		b := DefaultConfig(prof)
		b.OSCoreSlots = 1
		if ka, kb := mustKey(t, a), mustKey(t, b); ka != kb {
			t.Errorf("slots=0 key %s != slots=1 key %s", ka, kb)
		}
	})

	t.Run("baseline ignores the off-load transport", func(t *testing.T) {
		a := DefaultConfig(prof)
		a.Policy = policy.Baseline
		a.Migration = migration.Conservative()
		b := DefaultConfig(prof)
		b.Policy = policy.Baseline
		b.Migration = migration.Aggressive()
		if ka, kb := mustKey(t, a), mustKey(t, b); ka != kb {
			t.Errorf("baseline keys differ across migration engines: %s vs %s", ka, kb)
		}
	})
}

// Every behaviorally significant field must separate keys — above all the
// seed, since the cache would otherwise conflate distinct sample points.
func TestCanonicalKeyDiscriminates(t *testing.T) {
	prof := apacheProfile(t)
	base := mustKey(t, DefaultConfig(prof))

	mutate := map[string]func(*Config){
		"seed":           func(c *Config) { c.Seed = 2 },
		"threshold":      func(c *Config) { c.Threshold = 100 },
		"latency":        func(c *Config) { c.Migration = migration.Custom(5000) },
		"policy":         func(c *Config) { c.Policy = policy.DynamicInstrumentation },
		"cores":          func(c *Config) { c.UserCores = 2 },
		"os slots":       func(c *Config) { c.OSCoreSlots = 2 },
		"measure budget": func(c *Config) { c.MeasureInstrs = 2_000_000 },
		"warmup budget":  func(c *Config) { c.WarmupInstrs = 0 },
		"workload": func(c *Config) {
			p, ok := workloads.ByName("derby")
			if !ok {
				panic("derby profile missing")
			}
			c.Workload = p
		},
		"predictor org":   func(c *Config) { c.DirectMappedPredictor = true },
		"cold predictor":  func(c *Config) { c.ColdPredictor = true },
		"instrument only": func(c *Config) { c.InstrumentOnly = true },
		"memory latency":  func(c *Config) { c.Coherence = coherence.DefaultConfig(); c.Coherence.Memory.Latency = 999 },
	}
	for name, mut := range mutate {
		c := DefaultConfig(prof)
		mut(&c)
		if got := mustKey(t, c); got == base {
			t.Errorf("mutating %s did not change the canonical key", name)
		}
	}
}

func TestCanonicalKeyRejectsInvalid(t *testing.T) {
	c := DefaultConfig(apacheProfile(t))
	c.UserCores = 0
	if _, err := CanonicalKey(c); err == nil {
		t.Error("expected error for UserCores=0")
	}
	c = Config{}
	if _, err := CanonicalKey(c); err == nil {
		t.Error("expected error for zero config")
	}
}

func TestCanonicalizeProducesRunnableConfig(t *testing.T) {
	c := DefaultConfig(apacheProfile(t))
	c.Coherence = coherence.Config{}
	cc, err := Canonicalize(c)
	if err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	if _, err := New(cc); err != nil {
		t.Fatalf("New(canonicalized): %v", err)
	}
}

// TestCanonicalKeyPinned pins two keys as literals. A key is the offsimd
// result-cache address and the name of every committed benchmark digest,
// so it must not move when a hashed config struct (cache.Config included)
// gains, loses or renames a field.
func TestCanonicalKeyPinned(t *testing.T) {
	base := DefaultConfig(workloads.Apache())
	if got, want := mustKey(t, base), "14b64b6d4e54f5bde437dba2953bfeb690c1094925b658734ade53a80f36e16f"; got != want {
		t.Errorf("default apache key = %s, want %s", got, want)
	}

	c := DefaultConfig(workloads.Apache())
	c.Coherence.Protocol = coherence.MOESI
	osCPU := cpu.DefaultConfig()
	osCPU.L1I.SizeBytes = 16 << 10
	osCPU.L1D.SizeBytes = 16 << 10
	c.OSCPU = &osCPU
	if got, want := mustKey(t, c), "c3b3b73f305a94f61e670acc9809b734728c6476b5f477e2c2fc6d74223d2586"; got != want {
		t.Errorf("MOESI + 16 KB OS-core L1 key = %s, want %s", got, want)
	}
}
