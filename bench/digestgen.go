package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"offloadsim/internal/sim"
)

// Default-seed job lists the digest table covers: the first 12 seeds of
// detailed-os, the first 4 of multicore, one full grid of sampled sweeps,
// and every request serve-open's open-loop steps issue over a window of
// up to digestServeSeconds (plus the first digestSaturated requests of
// each closed stretch).
const (
	defaultSeed        = 1
	defaultSeconds     = 25
	digestDetailed     = 12
	digestMulticore    = 4
	digestServeSeconds = 60
	digestSaturated    = 200
)

// writeDigests recomputes the digest table for the default seed and
// writes it to path. Library jobs run on every host CPU; sweeps go
// through an in-process fleet exactly as the benchmark drives them.
func writeDigests(path string) error {
	tbl := digestTable{}
	var cfgs []sim.Config
	for i := 0; i < digestDetailed*len(detailedShapes); i++ {
		cfgs = append(cfgs, detailedJob(defaultSeed, i).cfg)
	}
	for i := 0; i < digestMulticore*len(multicoreShapes); i++ {
		cfgs = append(cfgs, multicoreJob(defaultSeed, i).cfg)
	}
	for j := 0; j < hotJobs; j++ {
		cfg, err := hotSpec(defaultSeed, j).Config()
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	// Open-loop steps send a seed-determined number of requests; a closed
	// stretch sends as many as the fleet completes, which stays well under
	// digestSaturated on any host this schedule suits.
	counts := map[int]int{}
	for _, step := range serveSchedule.openSteps(digestServeSeconds * time.Second) {
		counts[step.k] = len(arrivals(defaultSeed, step.k, step.rate, step.dur))
	}
	for r := 0; r < serveSchedule.rounds; r++ {
		counts[idleSteps+r] = digestSaturated
		counts[saturationSteps+r] = digestSaturated
	}
	for k, n := range counts {
		for j := 0; j < n; j++ {
			if hot, spec := serveRequest(defaultSeed, k, j); hot < 0 {
				cfg, err := spec.Config()
				if err != nil {
					return err
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	if err := digestLibrary(cfgs, tbl); err != nil {
		return err
	}

	e := &env{seed: defaultSeed, digests: digestTable{}}
	inst, err := setupSweep(e)
	if err != nil {
		return err
	}
	sw := inst.(*sweepLoad)
	sw.digestSweeps = len(sweepThresholds) * len(sweepLatencies)
	ph, err := sw.measure(0)
	sw.close()
	if err != nil {
		return err
	}
	if ph.failed > 0 {
		return fmt.Errorf("sweeps failed: %v", ph.errs)
	}
	for k, d := range ph.digests {
		tbl[k] = d
	}

	b, err := json.MarshalIndent(tbl, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d digests to %s\n", len(tbl), path)
	return nil
}

// digestLibrary simulates every config and records its result digest.
func digestLibrary(cfgs []sim.Config, tbl digestTable) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan sim.Config)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cfg := range next {
				raw, err := simulate(nil, "", nil, cfg)
				var key string
				if err == nil {
					key, err = jobKey(cfg)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				tbl[key] = digestBytes(raw)
				mu.Unlock()
			}
		}()
	}
	for _, cfg := range cfgs {
		next <- cfg
	}
	close(next)
	wg.Wait()
	return firstErr
}
