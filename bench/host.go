package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// hostStamp identifies where and from what a run was measured. compare
// refuses to pair runs whose machine fields (nproc, GOMAXPROCS, Go
// version) differ; commit, PGO profile and seed are recorded only.
type hostStamp struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	Commit     string
	PGO        string
	Seed       uint64
}

func currentHost(seed uint64) hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		PGO:        "none",
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
				if len(h.Commit) > 12 {
					h.Commit = h.Commit[:12]
				}
			case "vcs.modified":
				modified = s.Value == "true"
			case "-pgo":
				h.PGO = s.Value[strings.LastIndex(s.Value, "/")+1:]
			}
		}
		if modified {
			h.Commit += "+dirty"
		}
	}
	return h
}

func (h hostStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s commit=%s pgo=%s seed=%d",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.PGO, h.Seed)
}

// machine is the part of the stamp two compared runs must share.
func (h hostStamp) machine() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s", h.NProc, h.GOMAXPROCS, h.GoVersion)
}

// parseHost reads a stamp back from its String form.
func parseHost(s string) (hostStamp, error) {
	var h hostStamp
	for _, f := range strings.Fields(s) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return h, fmt.Errorf("host stamp field %q", f)
		}
		var err error
		switch k {
		case "nproc":
			h.NProc, err = strconv.Atoi(v)
		case "gomaxprocs":
			h.GOMAXPROCS, err = strconv.Atoi(v)
		case "go":
			h.GoVersion = v
		case "commit":
			h.Commit = v
		case "pgo":
			h.PGO = v
		case "seed":
			h.Seed, err = strconv.ParseUint(v, 10, 64)
		}
		if err != nil {
			return h, fmt.Errorf("host stamp field %q: %w", f, err)
		}
	}
	return h, nil
}

// heapWatch records the live heap each garbage collection leaves behind,
// for the traced run's median. It is a per-layer figure: how much of a
// simulator under construction a collection counts as live depends on
// where the collection lands, so it moves too much between runs to bound.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	live []float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		// The live-heap figure changes only when a cycle ends; polling
		// every 2 ms sees nearly every cycle the engine's allocation rate
		// produces.
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		var cycles uint64
		for {
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				h.live = append(h.live, float64(s[1].Value.Uint64()))
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// medianMB stops the watch and returns the median live heap in MiB.
func (h *heapWatch) medianMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.live) / (1 << 20)
}
