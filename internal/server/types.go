// Package server implements offsimd: a concurrent simulation-as-a-service
// daemon over the offloadsim library. It exposes an HTTP JSON API
// (POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/results/{id}, /healthz,
// /metrics) backed by a bounded job queue with backpressure, a worker
// pool that runs simulations concurrently, and a deterministic result
// cache keyed by the canonical hash of the normalized config+seed, so
// repeated sweep points — the common case when exploring the paper's
// policy × threshold × latency design space — are served in O(1).
package server

import (
	"time"

	"offloadsim/internal/obs"
	"offloadsim/internal/sim"
	"offloadsim/internal/telemetry"
)

// JobSpec is the wire form of one simulation request: sim.Spec, the
// spec every front end shares. The alias keeps the name for callers
// outside this package.
type JobSpec = sim.Spec

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted, waiting for a worker (or coalesced behind
	// an identical in-flight job).
	StateQueued State = "queued"
	// StateRunning: a worker is simulating it.
	StateRunning State = "running"
	// StateDone: finished; the result is available.
	StateDone State = "done"
	// StateFailed: simulation error, timeout, or shutdown before run.
	StateFailed State = "failed"
)

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// Cached is true when the job was served from the result cache
	// without running a simulation.
	Cached bool `json:"cached"`
	// Coalesced is true when the job attached to an identical in-flight
	// job instead of enqueueing its own simulation.
	Coalesced bool `json:"coalesced,omitempty"`
	// Traced is true when the job captures a telemetry trace; once done,
	// the trace is served by GET /v1/traces/{id}.
	Traced bool `json:"traced,omitempty"`
	// Stolen is true when an overloaded owner offered this job to a
	// peer replica instead of its own queue (work-stealing).
	Stolen bool `json:"stolen,omitempty"`
	// Replica is the advertised base URL of the replica holding this
	// job (fleet mode only) — poll status and fetch results there.
	Replica string `json:"replica,omitempty"`
	Error   string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// LatencySeconds is submit-to-finish wall time, set once finished.
	LatencySeconds float64 `json:"latency_seconds,omitempty"`
}

// job is the server-side record. All mutable fields are guarded by the
// owning Server's mutex; done is closed exactly once at completion.
type job struct {
	id   string
	key  string
	spec sim.Spec
	cfg  sim.Config

	state     State
	cached    bool
	coalesced bool
	trace     bool
	stolen    bool
	err       string
	result    []byte             // marshaled Result JSON, byte-identical across cache hits
	capture   *telemetry.Capture // trace jobs only, set at completion

	// tctx is the job's admission-span context: execution spans (queue
	// wait, sim execute, steal push, ...) parent under it. Zero when
	// tracing is disabled (docs/OBSERVABILITY.md).
	tctx obs.SpanContext

	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	done chan struct{}
}

// telemetryOpts shapes a trace job's spec into attachment options: the
// event trace is always on, and the interval time-series rides along
// when the spec asked for a cadence.
func (j *job) telemetryOpts() telemetry.Options {
	return telemetry.Options{Events: true, IntervalInstrs: j.spec.TraceIntervalInstrs}
}

// status snapshots the job. Caller must hold the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Key:         j.key,
		State:       j.state,
		Cached:      j.cached,
		Coalesced:   j.coalesced,
		Traced:      j.trace,
		Stolen:      j.stolen,
		Error:       j.err,
		SubmittedAt: j.submittedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
		st.LatencySeconds = j.finishedAt.Sub(j.submittedAt).Seconds()
	}
	return st
}
