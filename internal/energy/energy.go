// Package energy implements the extension the paper defers to future work
// ("we plan to study the applicability of the predictor for OS energy
// optimizations"): a simple core-level energy model in the spirit of
// Mogul et al., where the OS core is a smaller, lower-power design and
// the user core can enter a low-power state while its work executes
// remotely.
//
// The model is deliberately coarse — per-core active/idle power plus a
// per-migration energy charge — because the paper provides no energy
// numbers to validate against; it exists so the decision machinery can be
// driven by an EDP-style objective and so ablations can ask "when does
// off-loading save energy even when it does not save time?".
package energy

import "fmt"

// Model holds the power parameters. Units are watts at the configured
// clock; defaults use relative magnitudes from the asymmetric-CMP
// literature (OS core ~1/3 the power of the user core, idle ~1/10 of
// active).
type Model struct {
	// ClockGHz converts cycles to seconds.
	ClockGHz float64
	// UserActiveW is the user core's power while executing or busy-waiting.
	UserActiveW float64
	// UserIdleW is the user core's power in its low-power wait state.
	UserIdleW float64
	// OSActiveW is the (simpler) OS core's active power.
	OSActiveW float64
	// OSIdleW is the OS core's idle power.
	OSIdleW float64
	// MigrationNJ is the energy of one one-way migration, in nanojoules
	// (interrupt delivery, state writeback and reload).
	MigrationNJ float64
}

// Default returns the reference model: a 3.5 GHz user core at 8 W against
// an OS core at 2.5 W, idle states at roughly a tenth of active.
func Default() Model {
	return Model{
		ClockGHz:    3.5,
		UserActiveW: 8.0,
		UserIdleW:   0.8,
		OSActiveW:   2.5,
		OSIdleW:     0.3,
		MigrationNJ: 60,
	}
}

// Validate rejects non-positive clock and negative powers.
func (m Model) Validate() error {
	if m.ClockGHz <= 0 {
		return fmt.Errorf("energy: non-positive clock %v", m.ClockGHz)
	}
	for name, w := range map[string]float64{
		"UserActiveW": m.UserActiveW, "UserIdleW": m.UserIdleW,
		"OSActiveW": m.OSActiveW, "OSIdleW": m.OSIdleW, "MigrationNJ": m.MigrationNJ,
	} {
		if w < 0 {
			return fmt.Errorf("energy: negative %s", name)
		}
	}
	return nil
}

// Activity is the cycle accounting of one run, as produced by the
// simulator.
type Activity struct {
	// ElapsedCycles is the run's wall-clock length in cycles.
	ElapsedCycles uint64
	// UserCores is the number of user cores.
	UserCores int
	// UserIdleCycles is the total low-power-eligible user-core cycles
	// (summed across user cores).
	UserIdleCycles uint64
	// OSBusyCycles is the OS core's busy time (0 without an OS core).
	OSBusyCycles uint64
	// HasOSCore says whether an OS core exists (and so burns idle power
	// when unused).
	HasOSCore bool
	// Migrations is the number of off-loads (each costs two one-way
	// transfers).
	Migrations uint64
}

// Report is the evaluated energy outcome.
type Report struct {
	// Seconds is the run's duration.
	Seconds float64
	// Joules is the total energy across all cores and migrations.
	Joules float64
	// EDP is the energy-delay product (J·s), the paper's metric of
	// interest for the energy extension.
	EDP float64
	// AvgWatts is Joules/Seconds.
	AvgWatts float64
}

// Evaluate computes the energy report for one run.
func (m Model) Evaluate(a Activity) (Report, error) {
	if err := m.Validate(); err != nil {
		return Report{}, err
	}
	if a.ElapsedCycles == 0 {
		return Report{}, fmt.Errorf("energy: zero elapsed cycles")
	}
	if a.UserCores < 1 {
		return Report{}, fmt.Errorf("energy: no user cores")
	}
	hz := m.ClockGHz * 1e9
	seconds := float64(a.ElapsedCycles) / hz

	// User cores: idle cycles at idle power, everything else active.
	totalUserCycles := float64(float64(a.UserCores) * float64(a.ElapsedCycles))
	idle := float64(a.UserIdleCycles)
	if idle > totalUserCycles {
		idle = totalUserCycles
	}
	joules := float64((totalUserCycles-idle)/hz*m.UserActiveW) + float64(idle/hz*m.UserIdleW)

	// OS core: busy at active power, remainder idle.
	if a.HasOSCore {
		busy := float64(a.OSBusyCycles)
		if busy > float64(a.ElapsedCycles) {
			busy = float64(a.ElapsedCycles)
		}
		joules += float64(busy/hz*m.OSActiveW) + float64((float64(a.ElapsedCycles)-busy)/hz*m.OSIdleW)
	}

	// Migrations: two one-way transfers each.
	joules += float64(float64(a.Migrations) * 2 * m.MigrationNJ * 1e-9)

	return Report{
		Seconds:  seconds,
		Joules:   joules,
		EDP:      joules * seconds,
		AvgWatts: joules / seconds,
	}, nil
}
