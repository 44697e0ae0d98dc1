package obs

import (
	"math"
	"runtime/metrics"
)

// RuntimeStats is a point-in-time sample of the Go runtime health
// gauges exported on /metrics: scheduler, heap and GC pressure, which
// is where a saturated replica shows distress before job latency does.
type RuntimeStats struct {
	// Goroutines is the live goroutine count.
	Goroutines int64
	// HeapBytes is the bytes of live heap objects.
	HeapBytes int64
	// GCCycles is the completed GC cycle count since process start.
	GCCycles uint64
	// GCPauseSeconds is the approximate total stop-the-world GC pause
	// time since process start (bucket-midpoint sum of the runtime's
	// pause histogram).
	GCPauseSeconds float64
}

// runtimeNames is the fixed runtime/metrics read set.
var runtimeNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// ReadRuntimeStats samples the runtime/metrics registry. Unknown or
// unsupported metrics (older runtimes) contribute zero rather than
// failing the scrape.
func ReadRuntimeStats() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)

	var out RuntimeStats
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				out.Goroutines = int64(s.Value.Uint64())
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				out.HeapBytes = int64(s.Value.Uint64())
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				out.GCCycles = s.Value.Uint64()
			}
		case "/sched/pauses/total/gc:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				out.GCPauseSeconds = histogramSum(s.Value.Float64Histogram())
			}
		}
	}
	return out
}

// histogramSum approximates a Float64Histogram's total as the sum of
// bucket counts times bucket midpoints, clamping the open-ended edge
// buckets to their finite boundary.
func histogramSum(h *metrics.Float64Histogram) float64 {
	if h == nil {
		return 0
	}
	var sum float64
	for i, count := range h.Counts {
		if count == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(float64(count) * (lo + hi) / 2)
	}
	return sum
}
