package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"offloadsim/internal/coherence"
	"offloadsim/internal/cpu"
	"offloadsim/internal/sim"
)

// FuzzJobSpec feeds arbitrary request bodies through the job-spec
// decoder the POST /v1/jobs and /v1/peer/execute handlers use, then
// through admission (JobSpec.Config). Nothing may panic, and an admitted
// spec must canonicalize to a cache key with every allocation size the
// body controls (OS-core slots and L1s, replicas, cores) inside its
// admission bound; the body's replicas are bounded in every mode. No
// admitted spec runs the parallel engine. The seed corpus, valid and
// invalid bodies of every mode (seed-3 is a refused parallel body,
// seed-13 a detailed body with negative replicas), is committed under
// testdata/fuzz.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return
		}
		cfg, err := spec.Config()
		if err != nil {
			return
		}
		if cfg.Parallel.Enabled {
			t.Fatalf("admitted spec %s enables the parallel engine", body)
		}
		cc, err := sim.Canonicalize(cfg)
		if err != nil {
			t.Fatalf("admitted spec %s does not canonicalize: %v", body, err)
		}
		if _, err := sim.CanonicalKey(cfg); err != nil {
			t.Fatalf("admitted spec %s has no cache key: %v", body, err)
		}
		if cfg.OSCoreSlots > sim.MaxOSCores {
			t.Fatalf("admitted spec %s: %d OS-core slots above %d", body, cfg.OSCoreSlots, sim.MaxOSCores)
		}
		if spec.Replicas < 0 || spec.Replicas > sim.MaxReplicas || cc.Sampling.Replicas > sim.MaxReplicas {
			t.Fatalf("admitted spec %s: replicas %d (sampling %d) outside [0, %d]",
				body, spec.Replicas, cc.Sampling.Replicas, sim.MaxReplicas)
		}
		if n := cc.Coherence.NumNodes; n < 1 || n > coherence.MaxNodes {
			t.Fatalf("admitted spec %s: %d user + OS cores outside [1, %d]", body, n, coherence.MaxNodes)
		}
		if user := cpu.DefaultConfig(); cfg.OSCPU != nil &&
			(cfg.OSCPU.L1I.SizeBytes > user.L1I.SizeBytes || cfg.OSCPU.L1D.SizeBytes > user.L1D.SizeBytes) {
			t.Fatalf("admitted spec %s: OS-core L1s %d/%d B above the user cores'",
				body, cfg.OSCPU.L1I.SizeBytes, cfg.OSCPU.L1D.SizeBytes)
		}
	})
}
