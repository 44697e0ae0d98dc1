// Package syscalls models the operating-system entry points the simulator
// can invoke. Each entry point carries a run-length model: the number of
// privileged instructions an invocation executes as a function of its
// argument class, plus the stochastic effects the paper calls out
// (premature end-of-file returns, argument-independent jitter). The
// predictor's whole premise (§III-A) is that run length is *mostly* a
// deterministic function of syscall identity and arguments — this package
// is where that ground truth lives.
//
// The package also records the Table I census of distinct system calls
// across operating systems, which the paper uses to argue that manual
// per-syscall instrumentation does not scale.
package syscalls

import (
	"fmt"

	"offloadsim/internal/rng"
)

// ID identifies a modeled OS entry point. IDs 0..2 are the hardware-level
// trap handlers (register-window spill/fill and TLB refill) that execute in
// privileged mode without being "system calls"; the paper's mechanism
// watches the privilege bit, so it sees them too.
type ID int

// Trap handlers and system calls. The catalog is a representative cross
// section of a Unix syscall table: identity/process control, file I/O,
// networking, memory management, IPC, signals and time.
const (
	SpillTrap ID = iota
	FillTrap
	TLBMiss

	Getpid
	Gettid
	Getuid
	Time
	ClockGettime
	Sigprocmask
	Brk
	Sched_yield

	Read
	Write
	Pread
	Pwrite
	Open
	Close
	Stat
	Fstat
	Lseek
	Dup
	Pipe
	Fcntl
	Ioctl
	Readv
	Writev
	Fsync
	Unlink
	Rename
	Mkdir
	Getdents

	Socket
	Bind
	Listen
	Accept
	Connect
	Send
	Recv
	Sendto
	Recvfrom
	Sendfile
	Poll
	Select
	Epoll_wait
	Shutdown

	Mmap
	Munmap
	Mprotect
	Madvise

	Fork
	Execve
	Wait4
	Exit
	Kill
	Clone

	Futex
	Semop
	Msgsnd
	Msgrcv
	Shmat

	Nanosleep
	Getrusage
	Setitimer
	Sysinfo

	numIDs // sentinel
)

// NumIDs is the number of modeled entry points.
const NumIDs = int(numIDs)

// Spec describes the execution model of one OS entry point.
type Spec struct {
	ID   ID
	Name string

	// BaseLength is the privileged instruction count of the shortest
	// (smallest argument class) invocation.
	BaseLength int

	// ArgClasses is how many distinct argument classes the entry point
	// is invoked with (e.g. read() called with a few characteristic
	// buffer sizes). Each class has a deterministic length.
	ArgClasses int

	// ArgScale is the additional instruction count per argument-class
	// step: length(class) = BaseLength + ArgScale*class.
	ArgScale int

	// ShortReturnProb is the probability an invocation returns early at
	// a fraction of its nominal length (read() hitting EOF is the
	// paper's example). Early returns are what argument-based software
	// instrumentation cannot anticipate.
	ShortReturnProb float64

	// JitterProb is the probability the invocation length deviates by
	// up to ±5% from its deterministic value (cache/lock state inside
	// the kernel). Calibrated so the predictor's exact-hit rate lands
	// near the paper's 73.6%.
	JitterProb float64

	// MasksInterrupts marks handlers that run entirely with interrupts
	// disabled; they can never be extended by a device interrupt.
	MasksInterrupts bool

	// CodeLines / DataLines approximate the I-cache and D-cache
	// footprint (in 64 B lines) of the handler's kernel text and
	// private kernel data.
	CodeLines int
	DataLines int

	// UserDataFrac is the fraction of the handler's data references
	// that touch *user* memory (copy_to/from_user-style buffer
	// traffic). These references are the coherence coupling between
	// the user core and the OS core when off-loading is active.
	UserDataFrac float64
}

// Length returns the deterministic nominal run length for an argument
// class, clamped to at least 1 instruction.
func (s *Spec) Length(argClass int) int {
	if argClass < 0 {
		argClass = 0
	}
	if argClass >= s.ArgClasses {
		argClass = s.ArgClasses - 1
	}
	n := s.BaseLength + s.ArgScale*argClass
	if n < 1 {
		n = 1
	}
	return n
}

// SampleLength draws the *actual* run length of one invocation: the
// deterministic class length, shortened on an early return, and jittered
// with small probability. Interrupt extension is applied by the trace
// layer, not here, because it depends on machine state (PSTATE.IE), not on
// the syscall.
func (s *Spec) SampleLength(argClass int, src *rng.Source) int {
	n := s.Length(argClass)
	if s.ShortReturnProb > 0 && src.Bool(s.ShortReturnProb) {
		// Early return: the handler bails out at 35-70% of nominal (an
		// EOF read still walks the full VFS entry path before finding
		// nothing to copy).
		frac := 0.35 + float64(0.35*src.Float64())
		n = int(float64(n) * frac)
	} else if s.JitterProb > 0 && src.Bool(s.JitterProb) {
		// Small symmetric jitter within ±5%.
		n = int(float64(n) * (0.95 + float64(0.1*src.Float64())))
	}
	if n < 1 {
		n = 1
	}
	return n
}

// catalog is the full table of modeled entry points. Lengths are in
// instructions and follow the magnitudes the literature reports for
// in-order SPARC kernels: trap handlers tens of instructions, fast
// getters ~100, file/network I/O hundreds to tens of thousands depending
// on buffer size, fork/exec the longest.
var catalog = [NumIDs]Spec{
	SpillTrap: {Name: "spill_trap", BaseLength: 18, ArgClasses: 1, MasksInterrupts: true,
		CodeLines: 8, DataLines: 12, UserDataFrac: 0.85},
	FillTrap: {Name: "fill_trap", BaseLength: 16, ArgClasses: 1, MasksInterrupts: true,
		CodeLines: 8, DataLines: 12, UserDataFrac: 0.85},
	TLBMiss: {Name: "tlb_miss", BaseLength: 26, ArgClasses: 1, MasksInterrupts: true,
		CodeLines: 12, DataLines: 24, UserDataFrac: 0.10},

	Getpid:       {Name: "getpid", BaseLength: 85, ArgClasses: 1, JitterProb: 0.12, CodeLines: 18, DataLines: 32, UserDataFrac: 0.03},
	Gettid:       {Name: "gettid", BaseLength: 80, ArgClasses: 1, JitterProb: 0.12, CodeLines: 18, DataLines: 32, UserDataFrac: 0.03},
	Getuid:       {Name: "getuid", BaseLength: 90, ArgClasses: 1, JitterProb: 0.12, CodeLines: 12, DataLines: 9, UserDataFrac: 0.05},
	Time:         {Name: "time", BaseLength: 110, ArgClasses: 1, JitterProb: 0.12, CodeLines: 24, DataLines: 48, UserDataFrac: 0.04},
	ClockGettime: {Name: "clock_gettime", BaseLength: 150, ArgClasses: 2, ArgScale: 30, JitterProb: 0.12, CodeLines: 28, DataLines: 56, UserDataFrac: 0.04},
	Sigprocmask:  {Name: "sigprocmask", BaseLength: 140, ArgClasses: 2, ArgScale: 20, JitterProb: 0.12, CodeLines: 24, DataLines: 48, UserDataFrac: 0.04},
	Brk:          {Name: "brk", BaseLength: 400, ArgClasses: 3, ArgScale: 150, JitterProb: 0.12, CodeLines: 40, DataLines: 72, UserDataFrac: 0.10},
	Sched_yield:  {Name: "sched_yield", BaseLength: 300, ArgClasses: 1, JitterProb: 0.12, CodeLines: 36, DataLines: 60, UserDataFrac: 0.02},

	Read:     {Name: "read", BaseLength: 600, ArgClasses: 6, ArgScale: 900, ShortReturnProb: 0.030, JitterProb: 0.12, CodeLines: 80, DataLines: 480, UserDataFrac: 0.22},
	Write:    {Name: "write", BaseLength: 650, ArgClasses: 6, ArgScale: 950, ShortReturnProb: 0.010, JitterProb: 0.12, CodeLines: 84, DataLines: 480, UserDataFrac: 0.22},
	Pread:    {Name: "pread", BaseLength: 700, ArgClasses: 5, ArgScale: 900, ShortReturnProb: 0.025, JitterProb: 0.12, CodeLines: 80, DataLines: 720, UserDataFrac: 0.22},
	Pwrite:   {Name: "pwrite", BaseLength: 750, ArgClasses: 5, ArgScale: 950, ShortReturnProb: 0.010, JitterProb: 0.12, CodeLines: 84, DataLines: 720, UserDataFrac: 0.22},
	Open:     {Name: "open", BaseLength: 1800, ArgClasses: 4, ArgScale: 500, JitterProb: 0.12, CodeLines: 128, DataLines: 168, UserDataFrac: 0.15},
	Close:    {Name: "close", BaseLength: 350, ArgClasses: 2, ArgScale: 100, JitterProb: 0.12, CodeLines: 32, DataLines: 36, UserDataFrac: 0.05},
	Stat:     {Name: "stat", BaseLength: 1200, ArgClasses: 3, ArgScale: 350, JitterProb: 0.12, CodeLines: 96, DataLines: 120, UserDataFrac: 0.18},
	Fstat:    {Name: "fstat", BaseLength: 500, ArgClasses: 2, ArgScale: 150, JitterProb: 0.12, CodeLines: 48, DataLines: 60, UserDataFrac: 0.18},
	Lseek:    {Name: "lseek", BaseLength: 220, ArgClasses: 2, ArgScale: 50, JitterProb: 0.12, CodeLines: 20, DataLines: 24, UserDataFrac: 0.05},
	Dup:      {Name: "dup", BaseLength: 260, ArgClasses: 1, JitterProb: 0.12, CodeLines: 24, DataLines: 30, UserDataFrac: 0.02},
	Pipe:     {Name: "pipe", BaseLength: 900, ArgClasses: 1, JitterProb: 0.12, CodeLines: 64, DataLines: 84, UserDataFrac: 0.10},
	Fcntl:    {Name: "fcntl", BaseLength: 300, ArgClasses: 3, ArgScale: 80, JitterProb: 0.12, CodeLines: 32, DataLines: 36, UserDataFrac: 0.05},
	Ioctl:    {Name: "ioctl", BaseLength: 800, ArgClasses: 4, ArgScale: 400, JitterProb: 0.12, CodeLines: 72, DataLines: 96, UserDataFrac: 0.20},
	Readv:    {Name: "readv", BaseLength: 900, ArgClasses: 5, ArgScale: 1100, ShortReturnProb: 0.025, JitterProb: 0.12, CodeLines: 88, DataLines: 156, UserDataFrac: 0.22},
	Writev:   {Name: "writev", BaseLength: 950, ArgClasses: 5, ArgScale: 1150, ShortReturnProb: 0.010, JitterProb: 0.12, CodeLines: 92, DataLines: 156, UserDataFrac: 0.22},
	Fsync:    {Name: "fsync", BaseLength: 5200, ArgClasses: 3, ArgScale: 2500, JitterProb: 0.12, CodeLines: 144, DataLines: 960, UserDataFrac: 0.05, MasksInterrupts: true},
	Unlink:   {Name: "unlink", BaseLength: 1500, ArgClasses: 2, ArgScale: 400, JitterProb: 0.12, CodeLines: 104, DataLines: 132, UserDataFrac: 0.05},
	Rename:   {Name: "rename", BaseLength: 2100, ArgClasses: 2, ArgScale: 500, JitterProb: 0.12, CodeLines: 120, DataLines: 156, UserDataFrac: 0.05},
	Mkdir:    {Name: "mkdir", BaseLength: 1900, ArgClasses: 2, ArgScale: 400, JitterProb: 0.12, CodeLines: 112, DataLines: 144, UserDataFrac: 0.05},
	Getdents: {Name: "getdents", BaseLength: 1400, ArgClasses: 4, ArgScale: 700, ShortReturnProb: 0.050, JitterProb: 0.12, CodeLines: 96, DataLines: 168, UserDataFrac: 0.18},

	Socket:     {Name: "socket", BaseLength: 1100, ArgClasses: 2, ArgScale: 200, JitterProb: 0.12, CodeLines: 80, DataLines: 108, UserDataFrac: 0.05},
	Bind:       {Name: "bind", BaseLength: 700, ArgClasses: 1, JitterProb: 0.12, CodeLines: 56, DataLines: 72, UserDataFrac: 0.10},
	Listen:     {Name: "listen", BaseLength: 450, ArgClasses: 1, JitterProb: 0.12, CodeLines: 36, DataLines: 42, UserDataFrac: 0.02},
	Accept:     {Name: "accept", BaseLength: 2400, ArgClasses: 3, ArgScale: 600, JitterProb: 0.12, CodeLines: 128, DataLines: 168, UserDataFrac: 0.15},
	Connect:    {Name: "connect", BaseLength: 2600, ArgClasses: 3, ArgScale: 700, JitterProb: 0.12, CodeLines: 128, DataLines: 168, UserDataFrac: 0.15},
	Send:       {Name: "send", BaseLength: 1300, ArgClasses: 6, ArgScale: 1000, ShortReturnProb: 0.015, JitterProb: 0.12, CodeLines: 112, DataLines: 192, UserDataFrac: 0.18},
	Recv:       {Name: "recv", BaseLength: 1200, ArgClasses: 6, ArgScale: 950, ShortReturnProb: 0.040, JitterProb: 0.12, CodeLines: 112, DataLines: 192, UserDataFrac: 0.18},
	Sendto:     {Name: "sendto", BaseLength: 1400, ArgClasses: 5, ArgScale: 1000, ShortReturnProb: 0.015, JitterProb: 0.12, CodeLines: 116, DataLines: 192, UserDataFrac: 0.18},
	Recvfrom:   {Name: "recvfrom", BaseLength: 1300, ArgClasses: 5, ArgScale: 950, ShortReturnProb: 0.040, JitterProb: 0.12, CodeLines: 116, DataLines: 192, UserDataFrac: 0.18},
	Sendfile:   {Name: "sendfile", BaseLength: 3200, ArgClasses: 6, ArgScale: 2200, ShortReturnProb: 0.020, JitterProb: 0.12, CodeLines: 144, DataLines: 2400, UserDataFrac: 0.06},
	Poll:       {Name: "poll", BaseLength: 900, ArgClasses: 4, ArgScale: 450, JitterProb: 0.12, CodeLines: 80, DataLines: 108, UserDataFrac: 0.18},
	Select:     {Name: "select", BaseLength: 1000, ArgClasses: 4, ArgScale: 500, JitterProb: 0.12, CodeLines: 88, DataLines: 120, UserDataFrac: 0.18},
	Epoll_wait: {Name: "epoll_wait", BaseLength: 800, ArgClasses: 4, ArgScale: 400, JitterProb: 0.12, CodeLines: 72, DataLines: 96, UserDataFrac: 0.18},
	Shutdown:   {Name: "shutdown", BaseLength: 600, ArgClasses: 1, JitterProb: 0.12, CodeLines: 44, DataLines: 54, UserDataFrac: 0.02},

	Mmap:     {Name: "mmap", BaseLength: 2800, ArgClasses: 5, ArgScale: 900, JitterProb: 0.12, CodeLines: 144, DataLines: 192, UserDataFrac: 0.35},
	Munmap:   {Name: "munmap", BaseLength: 1700, ArgClasses: 4, ArgScale: 500, JitterProb: 0.12, CodeLines: 104, DataLines: 132, UserDataFrac: 0.30},
	Mprotect: {Name: "mprotect", BaseLength: 1100, ArgClasses: 3, ArgScale: 350, JitterProb: 0.12, CodeLines: 80, DataLines: 96, UserDataFrac: 0.35},
	Madvise:  {Name: "madvise", BaseLength: 700, ArgClasses: 3, ArgScale: 250, JitterProb: 0.12, CodeLines: 56, DataLines: 72, UserDataFrac: 0.45},

	Fork:   {Name: "fork", BaseLength: 22000, ArgClasses: 2, ArgScale: 5000, JitterProb: 0.12, CodeLines: 384, DataLines: 3200, UserDataFrac: 0.08, MasksInterrupts: true},
	Execve: {Name: "execve", BaseLength: 35000, ArgClasses: 2, ArgScale: 8000, JitterProb: 0.12, CodeLines: 320, DataLines: 576, UserDataFrac: 0.18, MasksInterrupts: true},
	Wait4:  {Name: "wait4", BaseLength: 1500, ArgClasses: 2, ArgScale: 400, JitterProb: 0.12, CodeLines: 88, DataLines: 108, UserDataFrac: 0.15},
	Exit:   {Name: "exit", BaseLength: 9000, ArgClasses: 1, JitterProb: 0.12, CodeLines: 256, DataLines: 1200, UserDataFrac: 0.05, MasksInterrupts: true},
	Kill:   {Name: "kill", BaseLength: 800, ArgClasses: 2, ArgScale: 200, JitterProb: 0.12, CodeLines: 60, DataLines: 72, UserDataFrac: 0.02},
	Clone:  {Name: "clone", BaseLength: 15000, ArgClasses: 3, ArgScale: 4000, JitterProb: 0.12, CodeLines: 320, DataLines: 560, UserDataFrac: 0.60, MasksInterrupts: true},

	Futex:  {Name: "futex", BaseLength: 500, ArgClasses: 4, ArgScale: 600, JitterProb: 0.12, CodeLines: 56, DataLines: 72, UserDataFrac: 0.28},
	Semop:  {Name: "semop", BaseLength: 700, ArgClasses: 3, ArgScale: 300, JitterProb: 0.12, CodeLines: 60, DataLines: 78, UserDataFrac: 0.15},
	Msgsnd: {Name: "msgsnd", BaseLength: 1100, ArgClasses: 4, ArgScale: 600, JitterProb: 0.12, CodeLines: 80, DataLines: 132, UserDataFrac: 0.28},
	Msgrcv: {Name: "msgrcv", BaseLength: 1050, ArgClasses: 4, ArgScale: 550, ShortReturnProb: 0.025, JitterProb: 0.12, CodeLines: 80, DataLines: 132, UserDataFrac: 0.28},
	Shmat:  {Name: "shmat", BaseLength: 1600, ArgClasses: 2, ArgScale: 400, JitterProb: 0.12, CodeLines: 96, DataLines: 120, UserDataFrac: 0.10},

	Nanosleep: {Name: "nanosleep", BaseLength: 1200, ArgClasses: 3, ArgScale: 300, JitterProb: 0.12, CodeLines: 72, DataLines: 84, UserDataFrac: 0.05},
	Getrusage: {Name: "getrusage", BaseLength: 600, ArgClasses: 1, JitterProb: 0.12, CodeLines: 48, DataLines: 60, UserDataFrac: 0.22},
	Setitimer: {Name: "setitimer", BaseLength: 700, ArgClasses: 2, ArgScale: 150, JitterProb: 0.12, CodeLines: 52, DataLines: 66, UserDataFrac: 0.15},
	Sysinfo:   {Name: "sysinfo", BaseLength: 900, ArgClasses: 1, JitterProb: 0.12, CodeLines: 64, DataLines: 84, UserDataFrac: 0.22},
}

func init() {
	// Stamp the IDs and validate the catalog once at package load so a
	// malformed entry fails fast rather than producing silent garbage.
	for i := range catalog {
		catalog[i].ID = ID(i)
		if catalog[i].Name == "" {
			panic(fmt.Sprintf("syscalls: entry %d has no name", i))
		}
		if catalog[i].BaseLength < 1 {
			panic(fmt.Sprintf("syscalls: %s has non-positive base length", catalog[i].Name))
		}
		if catalog[i].ArgClasses < 1 {
			catalog[i].ArgClasses = 1
		}
	}
}

// Lookup returns the spec for id. It panics on an out-of-range id, which
// always indicates a programming error in the caller.
func Lookup(id ID) *Spec {
	if id < 0 || int(id) >= NumIDs {
		panic(fmt.Sprintf("syscalls: id %d out of range", id))
	}
	return &catalog[id]
}

// All returns the full catalog in ID order. The returned slice aliases the
// package's data; callers must not modify the specs.
func All() []*Spec {
	out := make([]*Spec, NumIDs)
	for i := range catalog {
		out[i] = &catalog[i]
	}
	return out
}

// IsTrap reports whether id is a hardware trap handler rather than a
// programmer-visible system call. §IV notes these SPARC-specific short
// invocations can be excluded from reporting to match other ISAs.
func IsTrap(id ID) bool {
	return id == SpillTrap || id == FillTrap || id == TLBMiss
}

// String implements fmt.Stringer for IDs.
func (id ID) String() string {
	if id < 0 || int(id) >= NumIDs {
		return fmt.Sprintf("syscall(%d)", int(id))
	}
	return catalog[id].Name
}
