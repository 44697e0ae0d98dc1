package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// runRecord is one workload run read back from saved output.
type runRecord struct {
	file     string
	host     hostStamp
	workload string
	digest   string
	sum      summary
}

// readRuns parses every run in path, a saved output file or a directory
// of them. A run is the block from a "host" line to its summary line.
func readRuns(path string) ([]runRecord, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []runRecord
	for _, f := range files {
		recs, err := readRunFile(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, recs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs found", path)
	}
	return out, nil
}

func readRunFile(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	var cur *runRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		field, rest, _ := strings.Cut(line, " ")
		switch {
		case field == "host":
			h, err := parseHost(rest)
			if err != nil {
				return nil, err
			}
			cur = &runRecord{file: path, host: h}
		case cur == nil:
		case field == "workload":
			cur.workload = rest
		case field == "results_digest":
			cur.digest = rest
		case strings.HasPrefix(line, "{"):
			if err := json.Unmarshal([]byte(line), &cur.sum); err != nil {
				return nil, fmt.Errorf("summary line: %w", err)
			}
			out = append(out, *cur)
			cur = nil
		}
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict applies the acceptance rule to one workload x metric: better
// needs at least ten paired runs, B winning 9 in 10 of them (ties count
// for neither) and a median shift larger than A's quartile spread; worse
// is a median shift beyond the bound; a spread of A wider than the bound
// is unresolved unless every run of B beats every run of A.
func verdict(a, b []float64, higherBetter bool, bound float64) string {
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	medA, medB := median(a), median(b)
	q1, q3 := quartiles(a)
	rel := sign * ratio(medB-medA, math.Abs(medA))
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	worstB, bestA := math.Inf(1), math.Inf(-1)
	for _, v := range b {
		worstB = math.Min(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Max(bestA, sign*v)
	}
	switch {
	case n >= 10 && 10*wins >= 9*n && rel > 0 && math.Abs(medB-medA) > q3-q1:
		return "better"
	case rel < -bound:
		return "worse"
	case ratio(q3-q1, math.Abs(medA)) > bound && worstB <= bestA:
		return "unresolved"
	}
	return "same"
}

// compareMain implements `bench compare A B`. It exits 1 on a regression,
// an incorrect run or a results_digest mismatch, and 2 when the runs
// cannot be compared at all.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A B   (A, B: saved run outputs, files or directories)")
		return 2
	}
	var spec benchSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare: reading BENCHMARK.json:", err)
		return 2
	}
	sets := make([][]runRecord, 2)
	for i, p := range args {
		if sets[i], err = readRuns(p); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
	}
	machine := sets[0][0].host.machine()
	for _, set := range sets {
		for _, r := range set {
			if r.host.machine() != machine {
				fmt.Fprintf(os.Stderr, "bench compare: %s was measured on %s, not %s\n", r.file, r.host.machine(), machine)
				return 2
			}
		}
	}

	code := 0
	digests := map[string]string{}
	for _, set := range sets {
		for _, r := range set {
			if !r.sum.Correct || r.sum.Failed > 0 {
				fmt.Fprintf(w, "INCORRECT %s %s seed %d: %d of %d operations failed\n", r.file, r.workload, r.host.Seed, r.sum.Failed, r.sum.Attempted)
				code = 1
			}
			k := fmt.Sprintf("%s seed %d", r.workload, r.host.Seed)
			if d, ok := digests[k]; ok && d != r.digest {
				fmt.Fprintf(w, "DIGEST MISMATCH %s: %s vs %s (%s)\n", k, d, r.digest, r.file)
				code = 1
			}
			digests[k] = r.digest
		}
	}

	var names []string
	for _, r := range append(sets[0], sets[1]...) {
		names = append(names, r.workload)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tverdict")
	for i, wl := range names {
		if i > 0 && names[i-1] == wl {
			continue
		}
		for _, m := range spec.EndToEnd {
			var vals [2][]float64
			for s, set := range sets {
				for _, r := range set {
					if v, ok := r.sum.Metrics[m.Name]; ok && r.workload == wl {
						vals[s] = append(vals[s], v.Value)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				continue
			}
			v := verdict(vals[0], vals[1], m.Better == "higher", m.Bound)
			if v == "worse" {
				code = 1
			}
			medA, medB := median(vals[0]), median(vals[1])
			a1, a3 := quartiles(vals[0])
			b1, b3 := quartiles(vals[1])
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s [%s, %s]\t%s [%s, %s]\t%+.1f%%\t%s\n", wl, m.Name, m.Unit,
				formatValue(medA), formatValue(a1), formatValue(a3),
				formatValue(medB), formatValue(b1), formatValue(b3),
				100*ratio(medB-medA, math.Abs(medA)), v)
		}
	}
	_ = tw.Flush()
	return code
}
