package experiments

import (
	"fmt"
	"io"

	"offloadsim/internal/core"
	"offloadsim/internal/rng"
	"offloadsim/internal/trace"
)

// PredictorSizingResult validates the §III-A sizing claim: "a
// fully-associative predictor table with 200 entries yields close to
// optimal (infinite history) performance". The study replays one apache
// OS-entry stream through CAM tables of increasing size (plus an
// unbounded table as the infinite-history reference) and reports
// run-length accuracy for each.
type PredictorSizingResult struct {
	Entries []int // table sizes; the last row is the unbounded reference
	Exact   []float64
	Within5 []float64
	// BinaryAt500 is the off-load/stay hit rate at N=500 (Figure 3's
	// anchor threshold).
	BinaryAt500 []float64
}

// infiniteEntries is the stand-in for an unbounded table: far above the
// workload's AState population, so no replacement ever happens.
const infiniteEntries = 1 << 16

// PredictorSizing runs the sweep. The predictors are replayed outside the
// timing simulator (accuracy does not depend on cache timing), which
// keeps the sweep cheap enough to use generous instruction budgets.
func PredictorSizing(o Options) PredictorSizingResult {
	res := PredictorSizingResult{
		Entries: []int{25, 50, 100, 200, 400, infiniteEntries},
	}
	prof := o.groupProfiles("apache")[0]
	budget := o.WarmupInstrs + 4*o.MeasureInstrs

	for _, entries := range res.Entries {
		space := &trace.AddressSpace{}
		src := rng.New(o.Seed)
		kernel := trace.NewKernelLayout(space, src.Fork())
		gen := trace.MustNewGenerator(prof, 0, kernel, space, src.Fork())

		eng := core.NewEngine(core.NewCAMPredictor(entries), 500)
		var instrs uint64
		warm := budget / 3
		for instrs < budget {
			seg := gen.Next()
			instrs += uint64(seg.Instrs)
			if !seg.IsOS() {
				continue
			}
			eng.Train(seg.AState, eng.Decide(seg.AState), seg.Instrs, seg.Kind == trace.SyscallSegment)
			if instrs < warm {
				eng.ResetBooks() // warm-up entries train the table unscored
			}
		}
		res.Exact = append(res.Exact, eng.Syscalls.ExactRate())
		res.Within5 = append(res.Within5, eng.Syscalls.Within5Rate())
		res.BinaryAt500 = append(res.BinaryAt500, eng.Syscalls.BinaryRate())
	}
	return res
}

// GapTo200 returns how far the 200-entry table's exact+within5 accuracy
// sits below the unbounded reference (positive = worse than infinite).
func (r PredictorSizingResult) GapTo200() float64 {
	idx200 := -1
	for i, e := range r.Entries {
		if e == 200 {
			idx200 = i
		}
	}
	last := len(r.Entries) - 1
	if idx200 < 0 {
		return 0
	}
	return (r.Exact[last] + r.Within5[last]) - (r.Exact[idx200] + r.Within5[idx200])
}

// Render writes the sizing table.
func (r PredictorSizingResult) Render(w io.Writer) {
	header := []string{"entries", "exact", "within ±5%", "binary @ N=500"}
	var rows [][]string
	for i, e := range r.Entries {
		name := fmt.Sprint(e)
		if e == infiniteEntries {
			name = "unbounded"
		}
		rows = append(rows, []string{name,
			fmt.Sprintf("%.1f%%", 100*r.Exact[i]),
			fmt.Sprintf("%.1f%%", 100*r.Within5[i]),
			fmt.Sprintf("%.1f%%", 100*r.BinaryAt500[i]),
		})
	}
	renderTable(w, "Predictor sizing (§III-A: 200 entries ≈ infinite history) [apache]",
		header, rows)
	fmt.Fprintf(w, "  200-entry accuracy gap to unbounded: %.2f points\n\n", 100*r.GapTo200())
}
