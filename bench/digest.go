package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"offloadsim/internal/policy"
	"offloadsim/internal/sim"
)

// digestsPath is where `bench digests` writes the table, relative to the
// repository root the benchmark runs from.
const digestsPath = "bench/testdata/digests.json"

// digestsJSON holds, for every job and sweep point the default seed
// produces, the digest of its canonical result bytes. Any run that meets
// one of those keys again must reproduce the bytes exactly.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// digestTable maps a short canonical key to a short result digest.
type digestTable map[string]string

func loadDigests() (digestTable, error) {
	t := digestTable{}
	if err := json.Unmarshal(digestsJSON, &t); err != nil {
		return nil, fmt.Errorf("decoding embedded digests: %w", err)
	}
	return t, nil
}

// short truncates a hex digest to 16 digits: collisions across a few
// thousand entries are out of reach, and the table stays small.
func short(hexDigest string) string {
	if len(hexDigest) > 16 {
		return hexDigest[:16]
	}
	return hexDigest
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return short(hex.EncodeToString(sum[:]))
}

// jobKey is the short canonical key of a simulation config.
func jobKey(cfg sim.Config) (string, error) {
	k, err := sim.CanonicalKey(cfg)
	if err != nil {
		return "", err
	}
	return short(k), nil
}

// digestSet collects (key, digest) pairs of the operations a run always
// completes, in any order; its digest is order-independent.
type digestSet map[string]string

func (d digestSet) digest() string {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, d[k])
	}
	return digestBytes([]byte(b.String()))
}

// check digests raw result bytes and compares them against the table when
// the key is in it. A key outside the table passes (other seeds) unless
// required: the default seed's digest set must all be there, or a change
// to a default config value would move every key out of the table's
// reach unnoticed.
func (t digestTable) check(key string, raw []byte, required bool) (string, error) {
	d := digestBytes(raw)
	want, ok := t[key]
	switch {
	case ok && want != d:
		return d, fmt.Errorf("result %s: digest %s, want %s", key, d, want)
	case !ok && required:
		return d, fmt.Errorf("result %s: a default-seed job missing from %s; did its config change?", key, digestsPath)
	}
	return d, nil
}

// required reports whether an operation's key must be in the table: it is
// in the digest set of a default-seed run, and a table is loaded (the
// digests command runs with an empty one to record a new table).
func (e *env) required(keep bool) bool {
	return keep && e.seed == defaultSeed && len(e.digests) > 0
}

// checkResult decodes result bytes produced for cfg and checks the
// invariants every run must satisfy whatever its seed: the bytes are the
// canonical encoding of the Result, the measured window covers the
// requested budget, and the counters are mutually consistent.
func checkResult(cfg sim.Config, raw []byte) (sim.Result, error) {
	var r sim.Result
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("decoding result: %w", err)
	}
	if again, err := json.Marshal(r); err != nil || !bytes.Equal(again, raw) {
		return r, fmt.Errorf("result bytes are not the canonical encoding")
	}
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	if r.UserCores != cfg.UserCores {
		fail("user cores %d, want %d", r.UserCores, cfg.UserCores)
	}
	if r.Policy != cfg.Policy.String() {
		fail("policy %q, want %q", r.Policy, cfg.Policy)
	}
	if r.Instrs < cfg.MeasureInstrs*uint64(cfg.UserCores) && !cfg.Sampling.Enabled {
		fail("retired %d instructions, budget %d", r.Instrs, cfg.MeasureInstrs*uint64(cfg.UserCores))
	}
	if r.Cycles == 0 || !(r.Throughput > 0) {
		fail("no progress: %d cycles, throughput %v", r.Cycles, r.Throughput)
	}
	if r.Offloads > r.OSEntries {
		fail("%d off-loads exceed %d OS entries", r.Offloads, r.OSEntries)
	}
	if cfg.Policy == policy.Baseline && (r.Offloads != 0 || r.HasOSCore) {
		fail("baseline run off-loaded")
	}
	for name, v := range map[string]float64{
		"offload rate": r.OffloadRate, "user L2 hit": r.UserL2HitRate,
		"OS L2 hit": r.OSL2HitRate, "OS core utilization": r.OSCoreUtilization,
	} {
		if v < 0 || v > 1 {
			fail("%s %v outside [0,1]", name, v)
		}
	}
	if (r.Sampling != nil) != cfg.Sampling.Enabled || (r.Parallel != nil) != cfg.Parallel.Enabled {
		fail("engine provenance does not match the config")
	}
	if len(errs) > 0 {
		return r, fmt.Errorf("result %s/%s: %s", r.Workload, r.Policy, strings.Join(errs, "; "))
	}
	return r, nil
}
