// Package core implements the paper's primary contribution: a hardware
// predictor of OS invocation run-length and the policy machinery built on
// it (§III).
//
// On every transition to privileged mode the hardware XOR-hashes PSTATE,
// g0, g1, i0 and i1 into a 64-bit "AState" value and looks it up in a
// small table that records the run length observed the last time that
// AState was seen. A 2-bit saturating confidence counter per entry arbitrates
// between this "local" prediction and a "global" prediction (the average of
// the last three observed invocation lengths, regardless of AState). The
// off-load decision distills the predicted length into a binary choice:
// off-load iff the prediction exceeds a threshold N, where N itself is
// tuned at run time by an epoch-based sampler (tuner.go).
//
// Two table organizations from §III-A are provided:
//
//   - CAMPredictor: 200-entry fully-associative CAM storing the full
//     64-bit AState per entry (~2 KB), the configuration the paper reports
//     as within noise of infinite history.
//   - DirectMappedPredictor: 1500-entry tag-less direct-mapped RAM
//     (~3.3 KB) indexed by the low bits of AState; aliasing is possible
//     and accepted.
package core

import (
	"fmt"

	"offloadsim/internal/stats"
)

// PredictionSource says which sub-predictor produced a prediction.
type PredictionSource int

const (
	// LocalPrediction came from the AState-indexed table entry.
	LocalPrediction PredictionSource = iota
	// GlobalPrediction came from the last-3-invocations average, used when
	// the table has no confident entry for this AState.
	GlobalPrediction
)

// String implements fmt.Stringer.
func (s PredictionSource) String() string {
	if s == LocalPrediction {
		return "local"
	}
	return "global"
}

// Prediction is a predicted OS invocation run length in instructions.
type Prediction struct {
	Length int
	Source PredictionSource
}

// Predictor is the run-length prediction interface shared by the two table
// organizations. Implementations are single-core structures: each simulated
// user core owns one, exactly as each real core would own a copy of the
// hardware.
type Predictor interface {
	// Predict returns the predicted run length for an OS invocation whose
	// captured register hash is astate.
	Predict(astate uint64) Prediction
	// Update trains the predictor with the observed run length after the
	// invocation retires.
	Update(astate uint64, actual int)
	// StorageBits returns the hardware storage cost of the organization,
	// in bits, for reporting against the paper's ~2 KB claim.
	StorageBits() int
}

// confMax is the saturating limit of the 2-bit confidence counter.
const confMax = 3

// withinFivePercent reports whether predicted is within ±5% of actual,
// the paper's accuracy band and the confidence update rule.
func withinFivePercent(predicted, actual int) bool {
	if actual == 0 {
		return predicted == 0
	}
	diff := predicted - actual
	if diff < 0 {
		diff = -diff
	}
	// diff/actual <= 0.05 without floating point, as hardware would.
	return diff*20 <= actual
}

// global is the last-3-invocations average fallback shared by both
// organizations.
type global struct {
	window [3]int
	n      int
	next   int
}

func (g *global) observe(length int) {
	g.window[g.next] = length
	g.next = (g.next + 1) % len(g.window)
	if g.n < len(g.window) {
		g.n++
	}
}

func (g *global) predict() int {
	if g.n == 0 {
		return 0
	}
	sum := 0
	for i := 0; i < g.n; i++ {
		sum += g.window[i]
	}
	return sum / g.n
}

// Accuracy is one book of the prediction-quality numbers reported in
// §III-A (73.6% exact, +24.8% within ±5%) and of Figure 3's binary
// decision accuracy at the engine's threshold. Engine keeps the books.
type Accuracy struct {
	predictions stats.Counter
	exact       stats.Counter
	within5     stats.Counter
	underShoot  stats.Counter // mispredictions that underestimated
	overShoot   stats.Counter // mispredictions that overestimated
	binaryHits  stats.Counter // off-load/stay verdicts an oracle agrees with
}

// record scores one (predicted, actual) pair and whether its off-load
// verdict matched the oracle's.
func (a *Accuracy) record(predicted, actual int, binaryHit bool) {
	a.predictions.Inc()
	if binaryHit {
		a.binaryHits.Inc()
	}
	switch {
	case predicted == actual:
		a.exact.Inc()
	case withinFivePercent(predicted, actual):
		a.within5.Inc()
	case predicted < actual:
		a.underShoot.Inc()
	default:
		a.overShoot.Inc()
	}
}

// Predictions returns the total number of scored predictions.
func (a *Accuracy) Predictions() uint64 { return a.predictions.Value() }

// ExactRate returns the fraction of predictions that matched exactly.
func (a *Accuracy) ExactRate() float64 {
	return stats.Ratio(a.exact.Value(), a.predictions.Value())
}

// Within5Rate returns the fraction within ±5% but not exact.
func (a *Accuracy) Within5Rate() float64 {
	return stats.Ratio(a.within5.Value(), a.predictions.Value())
}

// MissRate returns the fraction outside ±5%.
func (a *Accuracy) MissRate() float64 {
	return stats.Ratio(a.underShoot.Value()+a.overShoot.Value(), a.predictions.Value())
}

// UnderShootShare returns, of the outside-±5% mispredictions, the share
// that underestimated. The paper observes interrupt extension makes
// underestimation the dominant failure mode.
func (a *Accuracy) UnderShootShare() float64 {
	return stats.Ratio(a.underShoot.Value(), a.underShoot.Value()+a.overShoot.Value())
}

// BinaryRate returns the fraction of off-load/stay verdicts that matched
// an oracle with the same threshold (Figure 3's metric).
func (a *Accuracy) BinaryRate() float64 {
	return stats.Ratio(a.binaryHits.Value(), a.predictions.Value())
}

// camEntry is one fully-associative predictor entry.
type camEntry struct {
	astate  uint64
	length  int
	conf    uint8
	lastUse uint64
	valid   bool
}

// CAMPredictor is the 200-entry fully-associative organization (§III-A):
// each entry stores the full 64-bit AState tag, the last observed run
// length and a 2-bit confidence counter; replacement is LRU.
type CAMPredictor struct {
	entries []camEntry
	index   map[uint64]int // astate -> entry slot, the CAM match function
	gen     uint64
	global  global
}

// DefaultCAMEntries is the paper's table size, chosen as "close to optimal
// (infinite history) performance" at ~2 KB of storage.
const DefaultCAMEntries = 200

// NewCAMPredictor builds a fully-associative predictor with the given
// entry count (panics if entries < 1).
func NewCAMPredictor(entries int) *CAMPredictor {
	if entries < 1 {
		panic(fmt.Sprintf("core: CAM predictor needs >= 1 entry, got %d", entries))
	}
	return &CAMPredictor{
		entries: make([]camEntry, entries),
		index:   make(map[uint64]int, entries),
	}
}

// Predict implements Predictor.
func (p *CAMPredictor) Predict(astate uint64) Prediction {
	if slot, ok := p.index[astate]; ok {
		e := &p.entries[slot]
		p.gen++
		e.lastUse = p.gen
		if e.conf > 0 {
			return Prediction{Length: e.length, Source: LocalPrediction}
		}
		// Low confidence: the global average of the last three
		// invocations is the better estimate (§III-A).
	}
	return Prediction{Length: p.global.predict(), Source: GlobalPrediction}
}

// Update implements Predictor.
func (p *CAMPredictor) Update(astate uint64, actual int) {
	p.global.observe(actual)

	if slot, ok := p.index[astate]; ok {
		e := &p.entries[slot]
		if withinFivePercent(e.length, actual) {
			if e.conf < confMax {
				e.conf++
			}
		} else if e.conf > 0 {
			e.conf--
		}
		e.length = actual
		p.gen++
		e.lastUse = p.gen
		return
	}
	// Allocate: free slot if any, else LRU victim.
	victim := -1
	for i := range p.entries {
		if !p.entries[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(p.entries); i++ {
			if p.entries[i].lastUse < p.entries[victim].lastUse {
				victim = i
			}
		}
		delete(p.index, p.entries[victim].astate)
	}
	p.gen++
	// New entries start weakly confident (2 of 3): a single anomalous
	// invocation (interrupt extension) must not dump a syscall onto the
	// global fallback, whose trap-dominated average would misclassify
	// long calls as short.
	p.entries[victim] = camEntry{astate: astate, length: actual, conf: 2, lastUse: p.gen, valid: true}
	p.index[astate] = victim
}

// StorageBits implements Predictor: 64-bit AState tag + 16-bit length +
// 2-bit confidence per entry. 200 entries ≈ 2 KB, matching §III-A.
func (p *CAMPredictor) StorageBits() int {
	return len(p.entries) * (64 + 16 + 2)
}

// Entries returns the configured entry count.
func (p *CAMPredictor) Entries() int { return len(p.entries) }

// dmEntry is one direct-mapped, tag-less entry.
type dmEntry struct {
	length int
	conf   uint8
	valid  bool
}

// DirectMappedPredictor is the 1500-entry tag-less RAM organization from
// §III-A: the least-significant bits of AState select the entry and no tag
// is stored, so unrelated AStates can alias; the paper reports accuracy
// similar to the CAM at ~3.3 KB.
type DirectMappedPredictor struct {
	entries []dmEntry
	global  global
}

// DefaultDirectMappedEntries is the paper's direct-mapped table size.
const DefaultDirectMappedEntries = 1500

// NewDirectMappedPredictor builds the tag-less organization (panics if
// entries < 1).
func NewDirectMappedPredictor(entries int) *DirectMappedPredictor {
	if entries < 1 {
		panic(fmt.Sprintf("core: direct-mapped predictor needs >= 1 entry, got %d", entries))
	}
	return &DirectMappedPredictor{entries: make([]dmEntry, entries)}
}

func (p *DirectMappedPredictor) slot(astate uint64) *dmEntry {
	return &p.entries[astate%uint64(len(p.entries))]
}

// Predict implements Predictor.
func (p *DirectMappedPredictor) Predict(astate uint64) Prediction {
	if e := p.slot(astate); e.valid && e.conf > 0 {
		return Prediction{Length: e.length, Source: LocalPrediction}
	}
	return Prediction{Length: p.global.predict(), Source: GlobalPrediction}
}

// Update implements Predictor.
func (p *DirectMappedPredictor) Update(astate uint64, actual int) {
	p.global.observe(actual)
	e := p.slot(astate)
	if e.valid {
		if withinFivePercent(e.length, actual) {
			if e.conf < confMax {
				e.conf++
			}
		} else if e.conf > 0 {
			e.conf--
		}
		e.length = actual
		return
	}
	// Same weak-confidence allocation as the CAM organization.
	*e = dmEntry{length: actual, conf: 2, valid: true}
}

// StorageBits implements Predictor: tag-less, 16-bit length + 2-bit
// confidence per entry; 1500 entries ≈ 3.3 KB.
func (p *DirectMappedPredictor) StorageBits() int {
	return len(p.entries) * (16 + 2)
}

// Entries returns the configured entry count.
func (p *DirectMappedPredictor) Entries() int { return len(p.entries) }

var (
	_ Predictor = (*CAMPredictor)(nil)
	_ Predictor = (*DirectMappedPredictor)(nil)
)
