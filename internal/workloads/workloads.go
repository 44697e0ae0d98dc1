// Package workloads defines the benchmark profiles the simulator runs.
// The paper evaluates Apache 2.2.6 (static pages selected by a CGI
// script), SPECjbb2005, Derby (SPECjvm2008) and a compute-bound group
// drawn from PARSEC (blackscholes, canneal), BioBench (fasta_protein,
// mummer) and SPEC CPU2006 (mcf, hmmer). We cannot run those binaries, so
// each profile is a stochastic characterization — system-call mix,
// privileged-instruction share, invocation-length structure, working-set
// sizes and user/OS data sharing — calibrated so the simulated streams
// reproduce the OS behaviour the paper reports (Table III utilizations,
// the short-vs-long invocation mix of §II, interrupt extension of §III-A).
package workloads

import (
	"fmt"
	"sort"

	"offloadsim/internal/syscalls"
)

// Class separates the paper's two workload groups.
type Class int

const (
	// Server workloads are OS-intensive (Apache, SPECjbb2005, Derby).
	Server Class = iota
	// Compute workloads are HPC-style with minimal OS interaction.
	Compute
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Server {
		return "server"
	}
	return "compute"
}

// SyscallWeight is one entry of a profile's system-call mix.
type SyscallWeight struct {
	ID     syscalls.ID
	Weight float64
}

// Profile is the complete stochastic description of one benchmark.
type Profile struct {
	Name        string
	Class       Class
	Description string

	// Mix is the system-call sampling distribution (weights need not
	// sum to 1).
	Mix []SyscallWeight

	// UserBurstMean is the mean user-mode instruction count between OS
	// invocations (geometric distribution). Together with the mix it
	// determines the privileged-instruction share.
	UserBurstMean int
	// UserBurstMin floors the burst length.
	UserBurstMin int

	// CallGrain is the mean instructions per procedure call in user
	// code, and CallDepthBias skews the call/return random walk deeper;
	// together they set the SPARC register-window spill/fill trap rate.
	CallGrain     int
	CallDepthBias float64

	// TLBMissPer1K is the rate of TLB-refill traps per 1000 user
	// instructions.
	TLBMissPer1K float64

	// InterruptRate is the probability that an interrupt-enabled OS
	// invocation is extended by an external interrupt before finishing
	// (§III-A's source of run-length underestimation).
	InterruptRate float64
	// InterruptMeanLen is the mean instruction count of the extension.
	InterruptMeanLen int

	// ThreadsPerCore reflects the paper's 2:1 mapping for server
	// workloads (Apache self-tunes; modeled as 2 as well). It scales
	// the distinct trap-context population the predictor must track.
	ThreadsPerCore int

	// Memory behaviour.
	UserCodeLines  int     // user text footprint in 64 B lines
	UserDataLines  int     // user heap/stack footprint in 64 B lines
	SharedLines    int     // user<->OS shared buffer pool per core
	UserMemRatio   float64 // data references per user instruction
	UserWriteFrac  float64 // fraction of user data references that write
	UserSharedFrac float64 // fraction of user data refs into the shared pool
	HotFrac        float64 // fraction of refs to the Zipf-hot subset
	ZipfS          float64 // Zipf exponent of the hot subset

	// TrapContexts is the number of distinct user register contexts
	// live at spill/fill/TLB trap time; it bounds the AState variety of
	// trap invocations.
	TrapContexts int
}

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workloads: profile with empty name")
	}
	if len(p.Mix) == 0 {
		return fmt.Errorf("workloads: %s has empty syscall mix", p.Name)
	}
	for _, m := range p.Mix {
		if m.Weight < 0 {
			return fmt.Errorf("workloads: %s has negative weight for %v", p.Name, m.ID)
		}
		if int(m.ID) < 0 || int(m.ID) >= syscalls.NumIDs {
			return fmt.Errorf("workloads: %s references unknown syscall %d", p.Name, m.ID)
		}
	}
	if p.UserBurstMean < p.UserBurstMin || p.UserBurstMin < 1 {
		return fmt.Errorf("workloads: %s burst bounds invalid", p.Name)
	}
	if p.UserMemRatio <= 0 || p.UserMemRatio > 1 {
		return fmt.Errorf("workloads: %s UserMemRatio %v out of (0,1]", p.Name, p.UserMemRatio)
	}
	for name, f := range map[string]float64{
		"UserWriteFrac":  p.UserWriteFrac,
		"UserSharedFrac": p.UserSharedFrac,
		"HotFrac":        p.HotFrac,
		"InterruptRate":  p.InterruptRate,
		"CallDepthBias":  p.CallDepthBias,
	} {
		if f < 0 || f > 1 {
			return fmt.Errorf("workloads: %s %s=%v out of [0,1]", p.Name, name, f)
		}
	}
	if p.UserCodeLines <= 0 || p.UserDataLines <= 0 || p.SharedLines <= 0 {
		return fmt.Errorf("workloads: %s has non-positive footprint", p.Name)
	}
	if p.TrapContexts < 1 {
		return fmt.Errorf("workloads: %s TrapContexts < 1", p.Name)
	}
	if p.CallGrain < 1 {
		return fmt.Errorf("workloads: %s CallGrain < 1", p.Name)
	}
	return nil
}

// MeanSyscallLength returns the mix-weighted mean nominal invocation
// length in instructions (argument classes taken uniform).
func (p *Profile) MeanSyscallLength() float64 {
	var wsum, lsum float64
	for _, m := range p.Mix {
		spec := syscalls.Lookup(m.ID)
		mean := float64(spec.BaseLength) + float64(float64(spec.ArgScale)*float64(spec.ArgClasses-1)/2)
		lsum += float64(m.Weight * mean)
		wsum += m.Weight
	}
	if wsum == 0 {
		return 0
	}
	return lsum / wsum
}

// ExpectedOSShare estimates the fraction of instructions executed in
// privileged mode: syscall time over syscall-plus-burst time. Trap and
// interrupt contributions are second-order and excluded; calibration
// tests measure the emergent value from generated traces.
func (p *Profile) ExpectedOSShare() float64 {
	osLen := p.MeanSyscallLength()
	return osLen / (osLen + float64(p.UserBurstMean))
}

// OSTimeFractionAbove returns the estimated fraction of OS (syscall)
// instruction time spent in invocations whose nominal length exceeds n —
// the quantity that shapes Table III's utilization-vs-threshold rows.
func (p *Profile) OSTimeFractionAbove(n int) float64 {
	var above, total float64
	for _, m := range p.Mix {
		spec := syscalls.Lookup(m.ID)
		for c := 0; c < spec.ArgClasses; c++ {
			l := float64(spec.Length(c))
			w := m.Weight / float64(spec.ArgClasses)
			total += float64(w * l)
			if spec.Length(c) > n {
				above += float64(w * l)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return above / total
}

// Apache models the paper's Apache 2.2.6 setup: static pages picked by a
// server-side CGI script. The mix is dominated by socket and file I/O,
// with an fork/exec tail from CGI. It is the most OS-intensive workload
// (Table III: the OS core is ~46% busy at N=100 and still ~18% busy at
// N>=10000, so a large share of OS time sits in very long invocations).
func Apache() *Profile {
	return &Profile{
		Name:        "apache",
		Class:       Server,
		Description: "Apache 2.2.6 serving static pages via CGI selection",
		Mix: []SyscallWeight{
			{syscalls.Read, 16}, {syscalls.Write, 14}, {syscalls.Sendfile, 8},
			{syscalls.Accept, 6}, {syscalls.Poll, 9}, {syscalls.Epoll_wait, 4},
			{syscalls.Open, 5}, {syscalls.Close, 6}, {syscalls.Stat, 7},
			{syscalls.Fstat, 4}, {syscalls.Recv, 6}, {syscalls.Send, 6},
			{syscalls.Writev, 4}, {syscalls.Getdents, 1}, {syscalls.Time, 22},
			{syscalls.Gettid, 11}, {syscalls.Fcntl, 3}, {syscalls.Lseek, 2},
			{syscalls.Socket, 1}, {syscalls.Shutdown, 1.5}, {syscalls.Sigprocmask, 6},
			{syscalls.Fork, 1.1}, {syscalls.Execve, 0.9}, {syscalls.Wait4, 1.0},
			{syscalls.Mmap, 1}, {syscalls.Brk, 1}, {syscalls.Futex, 2},
			{syscalls.Getpid, 8},
		},
		UserBurstMean:    2600,
		UserBurstMin:     80,
		CallGrain:        35,
		CallDepthBias:    0.47,
		TLBMissPer1K:     0.8,
		InterruptRate:    0.012, // network IRQs
		InterruptMeanLen: 1200,
		ThreadsPerCore:   2,
		UserCodeLines:    1800,
		UserDataLines:    18000,
		SharedLines:      1280,
		UserMemRatio:     0.30,
		UserWriteFrac:    0.30,
		UserSharedFrac:   0.03,
		HotFrac:          0.96,
		ZipfS:            0.9,
		TrapContexts:     8,
	}
}

// SPECjbb models SPECjbb2005: a JVM middleware workload. OS interaction
// is lock (futex), timer and memory-management heavy, with a long tail
// from GC-driven mmap/clone activity (Table III: ~34% OS-core busy at
// N=100, ~15% at N>=10000).
func SPECjbb() *Profile {
	return &Profile{
		Name:        "specjbb",
		Class:       Server,
		Description: "SPECjbb2005 middleware (JVM warehouse transactions)",
		Mix: []SyscallWeight{
			{syscalls.Futex, 22}, {syscalls.ClockGettime, 22}, {syscalls.Time, 10},
			{syscalls.Mmap, 4}, {syscalls.Munmap, 2.5}, {syscalls.Mprotect, 3},
			{syscalls.Madvise, 2}, {syscalls.Brk, 2}, {syscalls.Sched_yield, 5},
			{syscalls.Read, 2.5}, {syscalls.Write, 2.5}, {syscalls.Sigprocmask, 3},
			{syscalls.Nanosleep, 1.5}, {syscalls.Getrusage, 1.5}, {syscalls.Gettid, 14},
			{syscalls.Clone, 2.8}, {syscalls.Fork, 0.2}, {syscalls.Exit, 0.4},
			{syscalls.Wait4, 0.4}, {syscalls.Fsync, 0.8}, {syscalls.Setitimer, 1},
		},
		UserBurstMean:    3600,
		UserBurstMin:     100,
		CallGrain:        30,
		CallDepthBias:    0.47,
		TLBMissPer1K:     1.2, // large heap
		InterruptRate:    0.008,
		InterruptMeanLen: 1500,
		ThreadsPerCore:   2,
		UserCodeLines:    2400,
		UserDataLines:    17000,
		SharedLines:      768,
		UserMemRatio:     0.32,
		UserWriteFrac:    0.35,
		UserSharedFrac:   0.01,
		HotFrac:          0.96,
		ZipfS:            0.8,
		TrapContexts:     8,
	}
}

// Derby models the SPECjvm2008 Derby database workload: moderate OS
// interaction dominated by positioned file I/O and locking, with
// essentially no invocations beyond 10k instructions (Table III: 8.2%
// OS-core busy at N=100 collapsing to 0.2% at N>=10000).
func Derby() *Profile {
	return &Profile{
		Name:        "derby",
		Class:       Server,
		Description: "Derby database (SPECjvm2008) on an embedded store",
		Mix: []SyscallWeight{
			{syscalls.Pread, 14}, {syscalls.Pwrite, 11}, {syscalls.Read, 6},
			{syscalls.Write, 6}, {syscalls.Lseek, 9}, {syscalls.Futex, 9},
			{syscalls.ClockGettime, 12}, {syscalls.Time, 7}, {syscalls.Stat, 2},
			{syscalls.Fstat, 3}, {syscalls.Open, 1}, {syscalls.Close, 1.2},
			{syscalls.Poll, 2}, {syscalls.Send, 2.5}, {syscalls.Recv, 2.5},
			{syscalls.Getdents, 0.5}, {syscalls.Sigprocmask, 1.5},
			{syscalls.Getpid, 4}, {syscalls.Brk, 1},
		},
		UserBurstMean:    26000,
		UserBurstMin:     400,
		CallGrain:        38,
		CallDepthBias:    0.40,
		TLBMissPer1K:     0.6,
		InterruptRate:    0.006,
		InterruptMeanLen: 1200,
		ThreadsPerCore:   2,
		UserCodeLines:    2200,
		UserDataLines:    17000,
		SharedLines:      1024,
		UserMemRatio:     0.31,
		UserWriteFrac:    0.32,
		UserSharedFrac:   0.025,
		HotFrac:          0.95,
		ZipfS:            0.85,
		TrapContexts:     8,
	}
}

// computeProfile builds one member of the compute-bound group. The group
// displays "extremely similar behavior" (§II), differing mainly in
// working-set size and memory intensity; OS interaction is limited to
// occasional allocation and I/O plus register-window traps.
func computeProfile(name, desc string, dataLines int, memRatio float64, burst int) *Profile {
	return &Profile{
		Name:        name,
		Class:       Compute,
		Description: desc,
		Mix: []SyscallWeight{
			{syscalls.Brk, 5}, {syscalls.Mmap, 2}, {syscalls.Read, 3},
			{syscalls.Write, 1.5}, {syscalls.Fstat, 1}, {syscalls.ClockGettime, 2},
			{syscalls.Time, 1}, {syscalls.Getrusage, 0.5},
		},
		UserBurstMean:    burst,
		UserBurstMin:     2000,
		CallGrain:        45,
		CallDepthBias:    0.28,
		TLBMissPer1K:     0.4,
		InterruptRate:    0.006, // timer ticks only
		InterruptMeanLen: 900,
		ThreadsPerCore:   1,
		UserCodeLines:    900,
		UserDataLines:    dataLines,
		SharedLines:      256,
		UserMemRatio:     memRatio,
		UserWriteFrac:    0.28,
		UserSharedFrac:   0.01,
		HotFrac:          0.93,
		ZipfS:            0.75,
		TrapContexts:     8,
	}
}

// Blackscholes models PARSEC blackscholes (small working set, compute
// dense).
func Blackscholes() *Profile {
	return computeProfile("blackscholes", "PARSEC option pricing", 3500, 0.26, 90000)
}

// Canneal models PARSEC canneal (large, cache-hostile working set).
func Canneal() *Profile {
	return computeProfile("canneal", "PARSEC simulated annealing for routing", 15000, 0.34, 80000)
}

// FastaProtein models BioBench fasta_protein sequence search.
func FastaProtein() *Profile {
	return computeProfile("fasta_protein", "BioBench protein sequence alignment", 9000, 0.30, 70000)
}

// Mummer models BioBench mummer genome alignment.
func Mummer() *Profile {
	return computeProfile("mummer", "BioBench genome alignment (suffix trees)", 14000, 0.33, 75000)
}

// Mcf models SPEC CPU2006 mcf (pointer chasing, memory bound).
func Mcf() *Profile {
	return computeProfile("mcf", "SPEC CPU2006 vehicle scheduling (429.mcf)", 18000, 0.36, 85000)
}

// Hmmer models SPEC CPU2006 hmmer profile HMM search.
func Hmmer() *Profile {
	return computeProfile("hmmer", "SPEC CPU2006 hidden Markov model search (456.hmmer)", 5000, 0.28, 95000)
}

// ServerSet returns the three server workloads in paper order.
func ServerSet() []*Profile {
	return []*Profile{Apache(), SPECjbb(), Derby()}
}

// ComputeSet returns the six compute-bound workloads.
func ComputeSet() []*Profile {
	return []*Profile{Blackscholes(), Canneal(), FastaProtein(), Mummer(), Mcf(), Hmmer()}
}

// All returns every profile.
func All() []*Profile {
	return append(ServerSet(), ComputeSet()...)
}

// ByName looks a profile up by its Name; the boolean reports success.
func ByName(name string) (*Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return nil, false
}

// Names returns all profile names, sorted.
func Names() []string {
	var out []string
	for _, p := range All() {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}
