package core

// Decision is the binary off-load verdict derived from a run-length
// prediction (§III: "a system call will be off-loaded if it is expected to
// last longer than a specified threshold, N cycles").
type Decision struct {
	Offload   bool
	Predicted int
	Source    PredictionSource
}

// Engine couples a Predictor with a threshold to produce single-cycle
// off-load decisions, and scores every decision once, in two books: All
// covers every OS entry, and Syscalls covers system calls only, the
// population §IV reports (the SPARC register-window traps would skew it).
// Each book gives the §III-A run-length accuracy and Figure 3's binary
// decision accuracy.
type Engine struct {
	pred      Predictor
	threshold int

	All, Syscalls Accuracy
}

// NewEngine wraps pred with an initial threshold n.
func NewEngine(pred Predictor, n int) *Engine {
	return &Engine{pred: pred, threshold: n}
}

// Predictor returns the wrapped predictor.
func (e *Engine) Predictor() Predictor { return e.pred }

// Threshold returns the current N.
func (e *Engine) Threshold() int { return e.threshold }

// SetThreshold updates N (the dynamic tuner calls this at epoch
// boundaries).
func (e *Engine) SetThreshold(n int) { e.threshold = n }

// Decide produces the off-load verdict for an OS entry with register hash
// astate. In hardware this is the predictor lookup plus one comparison —
// the single-cycle path the paper contrasts with tens-to-hundreds of
// cycles of software instrumentation.
func (e *Engine) Decide(astate uint64) Decision {
	p := e.pred.Predict(astate)
	return Decision{
		Offload:   p.Length > e.threshold,
		Predicted: p.Length,
		Source:    p.Source,
	}
}

// Train feeds back the observed run length of the entry that Decide
// returned d for. It scores d in All, and also in Syscalls when the entry
// is a system call; the binary verdict is checked against an oracle at
// the current threshold.
func (e *Engine) Train(astate uint64, d Decision, actual int, syscall bool) {
	e.pred.Update(astate, actual)
	hit := d.Offload == (actual > e.threshold)
	e.All.record(d.Predicted, actual, hit)
	if syscall {
		e.Syscalls.record(d.Predicted, actual, hit)
	}
}

// ResetBooks clears both books; the predictor keeps its training.
func (e *Engine) ResetBooks() { e.All, e.Syscalls = Accuracy{}, Accuracy{} }
