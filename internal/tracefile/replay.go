package tracefile

import (
	"errors"
	"fmt"
	"io"

	"offloadsim/internal/core"
	"offloadsim/internal/stats"
	"offloadsim/internal/syscalls"
	"offloadsim/internal/trace"
)

// ReplayReport summarizes a predictor evaluated against a recorded trace.
type ReplayReport struct {
	Entries  uint64
	Syscalls uint64
	Traps    uint64

	// Run-length accuracy over syscall records (window traps excluded,
	// per §IV's reporting convention).
	Exact   float64
	Within5 float64

	// BinaryAccuracy is the off-load/stay hit rate at the replay
	// threshold, syscalls only.
	BinaryAccuracy float64
	// OffloadRate is off-load decisions per OS entry.
	OffloadRate float64
}

// Replay drives every record of r through the predictor at threshold n,
// training after each decision exactly as the live hardware would.
func Replay(r *Reader, pred core.Predictor, n int) (ReplayReport, error) {
	eng := core.NewEngine(pred, n)
	var offloads uint64
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return ReplayReport{}, err
		}
		d := eng.Decide(rec.AState)
		eng.Train(rec.AState, d, rec.Instrs, rec.Kind == trace.SyscallSegment)
		if d.Offload {
			offloads++
		}
	}
	rep := ReplayReport{
		Entries:        eng.All.Predictions(),
		Syscalls:       eng.Syscalls.Predictions(),
		Exact:          eng.Syscalls.ExactRate(),
		Within5:        eng.Syscalls.Within5Rate(),
		BinaryAccuracy: eng.Syscalls.BinaryRate(),
	}
	if rep.Entries == 0 {
		return rep, fmt.Errorf("tracefile: empty trace")
	}
	rep.Traps = rep.Entries - rep.Syscalls
	rep.OffloadRate = stats.Ratio(offloads, rep.Entries)
	return rep, nil
}

// Summary aggregates a trace's composition without evaluating anything.
type Summary struct {
	Entries    uint64
	Syscalls   uint64
	Traps      uint64
	OSInstrs   uint64
	UserInstrs uint64
	// RunLengths is a geometric histogram of invocation lengths.
	RunLengths *stats.Histogram
	// PerSyscall counts entries per entry point.
	PerSyscall map[string]uint64
	// PerCategory aggregates OS instruction time per kernel subsystem.
	PerCategory map[string]uint64
}

// Summarize scans a trace and reports its composition.
func Summarize(r *Reader) (Summary, error) {
	s := Summary{
		RunLengths:  stats.NewHistogram(24),
		PerSyscall:  map[string]uint64{},
		PerCategory: map[string]uint64{},
	}
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		s.Entries++
		s.OSInstrs += uint64(rec.Instrs)
		s.UserInstrs += uint64(rec.UserGap)
		s.RunLengths.Observe(float64(rec.Instrs))
		s.PerSyscall[rec.Sys.String()]++
		s.PerCategory[syscalls.CategoryOf(rec.Sys).String()] += uint64(rec.Instrs)
		if rec.Kind == trace.SyscallSegment {
			s.Syscalls++
		} else {
			s.Traps++
		}
	}
}

// PrivFraction returns the trace's privileged-instruction share.
func (s Summary) PrivFraction() float64 {
	return stats.Ratio(s.OSInstrs, s.OSInstrs+s.UserInstrs)
}
