// Package isa models the slice of the UltraSPARC III architected state
// that the paper's hardware predictor observes. The predictor (Nellans et
// al., §III-A) indexes its table with "AState": the XOR of the PSTATE
// register (privilege/interrupt/FP state), the g0 and g1 global registers,
// and the i0 and i1 input-argument registers, captured at every transition
// into privileged mode.
//
// We model exactly those registers plus the SPARC register-window
// machinery, because the windows' spill/fill traps are the source of the
// very short (<25 instruction) privileged sequences that §IV calls out and
// that any general off-loading mechanism must cope with.
package isa

// PSTATE bit fields, following the SPARC V9 PSTATE layout that matters for
// execution-mode tracking. Only the bits the simulator manipulates are
// modeled; the remaining bits are carried opaquely so they still perturb
// the AState hash the way real register content would.
const (
	// PStateAG selects the alternate globals (set during trap handling).
	PStateAG uint64 = 1 << 0
	// PStateIE enables interrupts. When a privileged sequence runs with
	// IE set, an external interrupt may extend the sequence — the one
	// source of run-length misprediction the paper identifies.
	PStateIE uint64 = 1 << 1
	// PStatePriv is the privileged-execution bit. Every 0->1 transition
	// is an OS entry and a prediction point.
	PStatePriv uint64 = 1 << 2
	// PStateAM enables 32-bit address masking.
	PStateAM uint64 = 1 << 3
	// PStatePEF enables the floating point unit.
	PStatePEF uint64 = 1 << 4
	// PStateMM is the two-bit memory-model field (TSO/PSO/RMO).
	PStateMM uint64 = 3 << 6
)

// NumWindows is the number of register windows in the modeled core. Real
// UltraSPARC III implements 8; the exact count only shifts spill/fill
// frequency slightly.
const NumWindows = 8

// RegFile is the architected register state visible to the predictor. The
// simulator updates it as workload segments execute so the AState captured
// at OS entry reflects syscall number and arguments the way the SPARC ABI
// exposes them (syscall number in g1, arguments in o0/o1 which become the
// callee's i0/i1).
type RegFile struct {
	PState uint64
	G0     uint64 // architecturally always zero on SPARC; modeled as such
	G1     uint64 // syscall number lives here per the Solaris/Linux ABI
	I0     uint64 // first argument register (callee view)
	I1     uint64 // second argument register (callee view)

	// CWP/CANSAVE/CANRESTORE implement the rotating register window
	// state machine that produces spill/fill traps.
	CWP        int
	CanSave    int
	CanRestore int
}

// NewRegFile returns a register file in the reset state: user mode,
// interrupts enabled, FP enabled, all windows available for saving.
func NewRegFile() *RegFile {
	return &RegFile{
		PState:     PStateIE | PStatePEF,
		CanSave:    NumWindows - 2,
		CanRestore: 0,
	}
}

// Privileged reports whether the core is executing in privileged mode.
func (r *RegFile) Privileged() bool { return r.PState&PStatePriv != 0 }

// InterruptsEnabled reports whether PSTATE.IE is set.
func (r *RegFile) InterruptsEnabled() bool { return r.PState&PStateIE != 0 }

// EnterPrivileged flips the core into privileged mode, as a trap or
// syscall instruction would. Interrupt enablement is preserved unless
// maskInterrupts is set (most trap handlers run the first few instructions
// with interrupts disabled; long syscalls re-enable them, which is what
// exposes them to run-length extension).
func (r *RegFile) EnterPrivileged(maskInterrupts bool) {
	r.PState |= PStatePriv | PStateAG
	if maskInterrupts {
		r.PState &^= PStateIE
	}
}

// ExitPrivileged returns the core to user mode with interrupts enabled.
func (r *RegFile) ExitPrivileged() {
	r.PState &^= PStatePriv | PStateAG
	r.PState |= PStateIE
}

// SetSyscallArgs loads the registers the way a user program does
// immediately before a trap: syscall number in g1, first two arguments in
// the in-registers.
func (r *RegFile) SetSyscallArgs(num, arg0, arg1 uint64) {
	r.G1 = num
	r.I0 = arg0
	r.I1 = arg1
}

// AState computes the predictor index exactly as §III-A specifies: the
// XOR of PSTATE, g0, g1, i0 and i1. On real hardware this is a single
// 64-bit XOR tree evaluated in the cycle of the privileged-mode
// transition, which is what lets the hardware policy decide in one cycle.
func (r *RegFile) AState() uint64 {
	return r.PState ^ r.G0 ^ r.G1 ^ r.I0 ^ r.I1
}

// WindowEvent describes the outcome of a register-window operation.
type WindowEvent int

const (
	// WindowOK means the save/restore hit an available window.
	WindowOK WindowEvent = iota
	// WindowSpill means a save found no clean window: the core traps to
	// the OS spill handler (a short privileged sequence).
	WindowSpill
	// WindowFill means a restore found no restorable window: the core
	// traps to the OS fill handler.
	WindowFill
)

// Save models a procedure-call SAVE instruction. When the windows are
// exhausted it returns WindowSpill: the OS spill handler must write the
// oldest window to the memory stack.
func (r *RegFile) Save() WindowEvent {
	r.CWP = (r.CWP + 1) % NumWindows
	if r.CanSave == 0 {
		// Spill: the trap handler writes the oldest window to the
		// stack (CANSAVE++/CANRESTORE--), then the SAVE completes
		// (CANSAVE--/CANRESTORE++) — a net-zero change, preserving
		// CANSAVE+CANRESTORE == NumWindows-2.
		return WindowSpill
	}
	r.CanSave--
	r.CanRestore++
	return WindowOK
}

// Restore models a procedure-return RESTORE instruction. When no window
// holds the caller's registers it returns WindowFill: the OS fill handler
// reloads the window from the stack.
func (r *RegFile) Restore() WindowEvent {
	r.CWP = (r.CWP - 1 + NumWindows) % NumWindows
	if r.CanRestore == 0 {
		// Fill: the trap handler reloads the caller's window from
		// the stack, then the RESTORE completes — net zero, same
		// invariant as Save's spill path.
		return WindowFill
	}
	r.CanRestore--
	r.CanSave++
	return WindowOK
}
