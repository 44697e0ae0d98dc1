package sim

import (
	"fmt"

	"offloadsim/internal/oscore"
)

// DefaultAsyncSlots is the per-user-core return-slot budget of async
// dispatch: double buffering, so a core can have one off-load in flight
// while the previous one's return descriptor is still unreconciled.
const DefaultAsyncSlots = 2

// MaxOSCores bounds the cluster size; beyond it per-class affinity stops
// being meaningful (there are only 8 syscall classes to route).
const MaxOSCores = 64

// OSCores generalizes the paper's single dedicated OS core into a
// cluster of K OS cores (Config.OSCores, internal/oscore,
// docs/OSCORES.md). The zero value is the paper's model: a one-core
// cluster with synchronous dispatch. An enabled block with K=1,
// synchronous dispatch, symmetric speed and no depth modulation
// describes exactly that same cluster and canonicalizes back to
// disabled, so it shares results, goldens and cache keys with configs
// that never mention OSCores, byte for byte.
type OSCores struct {
	// Enabled applies the block's knobs to the OS-core cluster.
	Enabled bool
	// K is the OS-core count (default 1).
	K int
	// Affinity maps syscall classes to designated OS cores, in the
	// "class=core" grammar of oscore.ParseAffinity ("" = round-robin by
	// class index).
	Affinity string
	// Asymmetry lists per-OS-core speed factors relative to the user
	// cores, per oscore.ParseAsymmetry ("" = symmetric; "1,0.5" = one
	// full-speed and one half-speed little core).
	Asymmetry string
	// Async enables fire-and-forget dispatch for side-effect-only
	// syscall classes (syscalls.SideEffectOnly): the user core pays only
	// the outbound transfer and keeps executing, reconciling the return
	// at its next OS boundary.
	Async bool
	// AsyncSlots is the per-user-core return-slot budget (default 2,
	// double-buffered). A core with all slots occupied stalls until the
	// earliest outstanding return lands.
	AsyncSlots int
	// DepthN adds DepthN instructions to the off-load threshold per
	// busy context observed on the designated queue at decision time —
	// queue-depth-aware dynamic N: a backlogged OS core only receives
	// work that amortizes the longer wait. Applies to threshold-based
	// policies; 0 disables.
	DepthN int
	// Rebalance lets routing divert a request from its backlogged
	// designated queue to a strictly less-loaded one (ties keep the
	// designated queue for cache locality).
	Rebalance bool
}

// DefaultOSCores returns an enabled synchronous k-core block with
// round-robin affinity and symmetric speeds.
func DefaultOSCores(k int) OSCores {
	return OSCores{Enabled: true, K: k}.withDefaults()
}

// withDefaults fills zero fields of an enabled block and normalizes its
// strings to canonical form; a disabled block normalizes to the zero
// value. An enabled block that describes exactly the default — one
// synchronous full-speed OS core, no depth modulation — collapses to
// disabled, so it canonicalizes, runs and caches identically to a config
// that never mentioned OSCores. Must-parse canonicalization is safe for
// any block that passed Validate; unparsable strings are left as-is for
// Validate to report.
func (o OSCores) withDefaults() OSCores {
	if !o.Enabled {
		return OSCores{}
	}
	if o.K < 1 {
		o.K = 1
	}
	if o.Async && o.AsyncSlots == 0 {
		o.AsyncSlots = DefaultAsyncSlots
	}
	if !o.Async {
		o.AsyncSlots = 0
	}
	if o.K == 1 {
		// One queue has nowhere to rebalance to.
		o.Rebalance = false
	}
	if a, err := oscore.CanonicalAffinity(o.Affinity, o.K); err == nil {
		o.Affinity = a
	}
	if a, err := oscore.CanonicalAsymmetry(o.Asymmetry, o.K); err == nil {
		o.Asymmetry = a
	}
	if o.K == 1 && !o.Async && o.Asymmetry == "" && o.DepthN == 0 {
		return OSCores{}
	}
	return o
}

// Validate checks an enabled block (disabled blocks are always valid).
func (o OSCores) Validate() error {
	if !o.Enabled {
		return nil
	}
	if o.K < 0 {
		return fmt.Errorf("sim: negative OSCores.K %d", o.K)
	}
	k := o.K
	if k < 1 {
		k = 1
	}
	if k > MaxOSCores {
		return fmt.Errorf("sim: OSCores.K %d > %d", o.K, MaxOSCores)
	}
	if _, err := oscore.ParseAffinity(o.Affinity, k); err != nil {
		return err
	}
	if _, err := oscore.ParseAsymmetry(o.Asymmetry, k); err != nil {
		return err
	}
	if o.AsyncSlots < 0 {
		return fmt.Errorf("sim: negative OSCores.AsyncSlots %d", o.AsyncSlots)
	}
	if !o.Async && o.AsyncSlots > 0 {
		return fmt.Errorf("sim: OSCores.AsyncSlots set without Async")
	}
	if o.DepthN < 0 {
		return fmt.Errorf("sim: negative OSCores.DepthN %d", o.DepthN)
	}
	return nil
}

// clusterK returns how many OS cores the configuration builds (0 when
// off-loading is impossible). Call after withDefaults.
func (c *Config) clusterK() int {
	if !c.offloadCapable() {
		return 0
	}
	if c.OSCores.Enabled {
		return c.OSCores.K
	}
	return 1
}
