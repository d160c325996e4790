// Package service turns the experiments Runner into a long-running
// sweep-as-a-service backend: submitted experiment specs become durable,
// observable, cancellable, crash-resumable jobs.
//
// The pieces compose the seams earlier layers already provide:
//
//   - Store persists each job as a directory of atomic snapshots
//     (spec.json, meta.json) plus the sweep's streaming results.jsonl —
//     the exact artifact cmd/experiments -out-jsonl writes, byte for
//     byte, because both drive the same JSONLSink.
//   - Manager is the scheduler: a FIFO queue drained by one loop
//     goroutine running one sweep at a time on the job's cell workers,
//     with per-job cooperative cancellation
//     (the Runner's context) and crash recovery — on open, every job
//     that was queued or running when the previous process died is
//     re-admitted, and its results.jsonl is picked back up through
//     ReadJSONLPrefix/ResumeFrom, so a kill -9 mid-sweep finishes
//     byte-identical to an uninterrupted run.
//   - Hub fans the Runner's serialized Observer callbacks out to any
//     number of event subscribers with bounded buffers: a slow reader
//     loses events (and is told how many) instead of stalling the sweep.
//   - Server exposes it all as the HTTP/JSON API cmd/vdtnd serves; see
//     docs/SERVICE.md for the wire reference.
package service

import (
	"time"

	"vdtn/internal/experiments"
)

// State is a job's lifecycle state. Queued and running are live states;
// done, failed and cancelled are terminal.
type State string

const (
	// StateQueued: admitted, waiting for the scheduler.
	StateQueued State = "queued"
	// StateRunning: the scheduler is executing the sweep.
	StateRunning State = "running"
	// StateDone: every cell completed; results.jsonl is complete.
	StateDone State = "done"
	// StateFailed: a cell (or the sweep machinery) failed; Meta.Error
	// carries the coordinates.
	StateFailed State = "failed"
	// StateCancelled: cancelled by a client (DELETE); the completed
	// prefix of results.jsonl is valid data.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: terminal jobs never run
// again and their event streams are closed.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Options are a job's run options — the JSON face of the
// experiments.Options knobs a sweep accepts, carried in the POST /v1/jobs
// envelope and persisted in meta.json so a restarted daemon resumes the
// job under identical options. Workers never affects the result stream's
// bytes — the same rule that keeps it out of the JSONL header and every
// cache key — so a resume after editing it is still byte-identical.
// Unknown keys are ignored, so jobs persisted with the retired
// scan_workers and total_parallelism knobs still load.
type Options struct {
	// Seeds are the replication seeds; empty uses the spec's own list.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Scale multiplies the simulated duration; 0 uses the spec's own.
	Scale float64 `json:"scale,omitempty"`
	// Workers bounds sweep parallelism; 0 = GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Metric overrides the experiment's default metric (must name a
	// known metric; it becomes part of the stream header).
	Metric string `json:"metric,omitempty"`
	// CacheDir persists recorded contact traces in this directory,
	// shared across jobs that name the same one.
	CacheDir string `json:"cache_dir,omitempty"`
}

// runOptions translates the wire options into the Runner's.
func (o Options) runOptions() experiments.Options {
	return experiments.Options{
		Seeds:   o.Seeds,
		Scale:   o.Scale,
		Workers: o.Workers,
	}
}

// Meta is a job's durable record, the meta.json snapshot and the JSON
// body job queries return. The scheduler rewrites it atomically at every
// state transition; per-cell progress (Done) is additionally folded in
// live from memory for running jobs.
type Meta struct {
	// ID is the job handle ("j000001", ...); IDs are sequential, so job
	// order on disk is admission order.
	ID string `json:"id"`
	// State is the lifecycle state.
	State State `json:"state"`
	// Experiment and Title identify the sweep (from the spec).
	Experiment string `json:"experiment"`
	Title      string `json:"title,omitempty"`
	// Options are the run options the job was submitted with.
	Options Options `json:"options"`
	// Cells is the sweep's total cell count; Done counts completed
	// cells (live for running jobs, final for terminal ones).
	Cells int `json:"cells"`
	Done  int `json:"done"`
	// Resumed counts the cells the latest admission recovered from an
	// interrupted run's results.jsonl instead of re-simulating.
	Resumed int `json:"resumed,omitempty"`
	// Restarts counts daemon restarts that re-admitted this job.
	Restarts int `json:"restarts,omitempty"`
	// Error carries a failed job's reason (a failing cell's
	// coordinates), or the cancellation note.
	Error string `json:"error,omitempty"`
	// SubmittedAt / StartedAt / FinishedAt stamp the lifecycle;
	// ElapsedSec is the last run attempt's wall-clock seconds.
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	ElapsedSec  float64    `json:"elapsed_sec,omitempty"`
}
