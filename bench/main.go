// Command bench is the repository benchmark: four workloads that exercise
// the detailed engine, the multi-core and OS-cluster models, sampled
// sweeps through the fleet, and offsimd serving under open-loop load. Each
// run checks every simulation result, prints its end-to-end metrics (or,
// traced, its per-layer metrics) and ends with one JSON summary line.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1
//	bench --seed N [--seconds S] [--out FILE]   every workload, one child each
//	bench compare A B                           verdict per workload x metric
//	bench digests                               rewrite testdata/digests.json
//
// See README.md for the workloads, metrics and how to read a comparison.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from here.
var processStart = time.Now()

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "digests":
			if err := writeDigests(digestsPath); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			return
		}
	}
	os.Exit(run(os.Args[1:]))
}

// run measures one workload, or all of them, and returns the exit code.
func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, one child process each")
	seed := fs.Uint64("seed", defaultSeed, "seed for job seeds, sweep seeds and the arrival schedule")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	traceDir := fs.String("trace-dir", ".bench_out/trace", "where a traced run writes spans and profiles")
	out := fs.String("out", "", "also append the output to this file")
	_ = fs.Parse(args)
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
		w = io.MultiWriter(os.Stdout, f)
	}
	if *name == "" {
		return runAll(w, *seed, *seconds, *trace, *traceDir)
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := runWorkload(wl, config{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		traceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := rep.print(w); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, so set-up time and
// memory describe one workload alone, and relays each child's output.
func runAll(w io.Writer, seed uint64, seconds, trace int, traceDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadNames() {
		var buf bytes.Buffer
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-trace-dir", traceDir)
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", name, err)
			code = 1
		}
		_, _ = w.Write(buf.Bytes())
	}
	return code
}

// config is one workload run's settings.
type config struct {
	seed     uint64
	seconds  int
	traced   bool
	traceDir string
}

// metricValue is one reported metric; n is its sample count where the
// value is a percentile or median (0 otherwise).
type metricValue struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is everything one workload run prints.
type report struct {
	workload      string
	host          hostStamp
	resultsDigest string
	attempted     int
	failed        int
	metrics       []metricValue
}

// summary is the last line of a run's output, the one tools read: whether
// every result checked out, how many operations ran and failed, and every
// metric with its unit.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryUnit `json:"metrics"`
}

type summaryUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "host %s\n", r.host)
	fmt.Fprintf(bw, "workload %s\n", r.workload)
	fmt.Fprintf(bw, "results_digest %s\n", r.resultsDigest)
	s := summary{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]summaryUnit, len(r.metrics)),
	}
	for _, m := range r.metrics {
		fmt.Fprintf(bw, "metric %s %s %s", m.name, formatValue(m.value), m.unit)
		if m.n > 0 {
			fmt.Fprintf(bw, " n=%d", m.n)
		}
		fmt.Fprintln(bw)
		s.Metrics[m.name] = summaryUnit{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("encoding the summary: %w", err)
	}
	bw.Write(line)
	bw.WriteByte('\n')
	return bw.Flush()
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }
