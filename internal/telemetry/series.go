package telemetry

import (
	"io"
	"strconv"
)

// IntervalPoint is one sample of the interval time-series: the headline
// metrics of the simulation over one cadence window of the measurement
// phase. All counts are deltas over the window; rates and utilizations
// are computed over the window alone.
type IntervalPoint struct {
	// Index is the point's position in the series.
	Index int
	// EndInstrs is the per-core measurement progress (max across user
	// cores, in retired instructions) at the window's end.
	EndInstrs uint64
	// Instrs is the workload instructions retired across user cores in
	// the window; Cycles the largest per-core elapsed cycle count.
	Instrs uint64
	Cycles uint64
	// Throughput is the sum of per-core IPC over the window.
	Throughput float64
	// Cache behaviour over the window.
	UserL2HitRate  float64
	UserL1DHitRate float64
	OSL2HitRate    float64
	// OSCoreUtilization is OS-core busy cycles over the window's elapsed
	// capacity; QueueDepth is the time-averaged number of off-loads
	// waiting for an OS-core context (queue-delay cycles accumulated per
	// elapsed cycle); MeanQueueDelay the window's mean wait.
	OSCoreUtilization float64
	QueueDepth        float64
	MeanQueueDelay    float64
	// Off-loading activity in the window.
	OSEntries uint64
	Offloads  uint64
	// LiveN is core 0's off-load threshold at the window's end — the
	// trail of the §III-B dynamic tuner (constant for static-N runs).
	LiveN int
}

// seriesColumns is the CSV header, in the exact column order
// WriteSeriesCSV emits.
var seriesColumns = []string{
	"index", "end_instrs", "instrs", "cycles", "throughput",
	"user_l2_hit_rate", "user_l1d_hit_rate", "os_l2_hit_rate",
	"os_core_utilization", "queue_depth", "mean_queue_delay",
	"os_entries", "offloads", "live_n",
}

// WriteSeriesCSV renders the time-series as CSV with a fixed header.
// Floats print via strconv 'g' at full precision, so the bytes are a
// pure function of the values.
func WriteSeriesCSV(w io.Writer, series []IntervalPoint) error {
	for i, c := range seriesColumns {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, c); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	var buf []byte
	for i := range series {
		p := &series[i]
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(p.Index), 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, p.EndInstrs, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, p.Instrs, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, p.Cycles, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.Throughput, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.UserL2HitRate, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.UserL1DHitRate, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.OSL2HitRate, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.OSCoreUtilization, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.QueueDepth, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, p.MeanQueueDelay, 'g', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, p.OSEntries, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, p.Offloads, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(p.LiveN), 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
