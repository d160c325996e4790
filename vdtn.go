// Package vdtn is a discrete-event simulator for Vehicular Delay-Tolerant
// Networks, reproducing Soares et al., "Improvement of Messages Delivery
// Time on Vehicular Delay-Tolerant Networks" (ICPP 2009).
//
// It provides:
//
//   - the paper's contribution — pluggable buffer scheduling and dropping
//     policies (FIFO, Random, Lifetime DESC/ASC) enforced on Epidemic and
//     binary Spray-and-Wait routing;
//   - full reimplementations of the MaxProp and PRoPHET (GRTRMax) routing
//     protocols the paper compares against, plus DirectDelivery and
//     FirstContact baselines;
//   - the complete simulation substrate: road-map graph with shortest
//     paths, map-constrained vehicle mobility, disk-range radio contacts
//     with finite-rate transfers, capacity-bounded buffers with TTL
//     expiry, and a deterministic event engine;
//   - an experiment harness that regenerates every figure of the paper's
//     evaluation and several ablations.
//
// # Quick start
//
//	cfg := vdtn.PaperConfig(120, vdtn.ProtoEpidemic, vdtn.PolicyLifetime, 1)
//	result, err := vdtn.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(result.Report)
//
// Runs are deterministic: identical (Config, Seed) pairs produce identical
// Results. See the examples directory for scenario customization and for
// plugging in a custom routing protocol.
//
// # Contact recording and replay
//
// A run's contact process — when node pairs enter and leave radio range —
// depends only on the seed, the map, the fleet and the mobility and radio
// parameters, never on traffic or routing. RecordContacts exploits that:
// it produces the trace from mobility alone (no routing, no traffic) at a
// fraction of a full run's cost, reading and validating only those
// contact fields. Every replay reads a ContactRecordingView:
// NewContactRecordingView over the recording's binary encoding, or
// OpenContactRecordingView over a persisted file, which it reads into
// memory and validates once. Setting
// Config.ReplaySource to the view drives a run's contacts from the trace
// instead of mobility. A replayed run is bit-identical to the live run —
// same Result, same event trace — but skips all position and proximity
// work; a nil ReplaySource scans live, as in the paper.
//
//	rec, err := vdtn.RecordContacts(cfg)
//	if err != nil { ... }
//	view, err := vdtn.NewContactRecordingView(vdtn.EncodeContactRecordingBinary(rec))
//	if err != nil { ... }
//	cfg.ReplaySource = view
//	result, err := vdtn.Run(cfg) // identical to the live run's result
//
// The experiment harness builds on this: every sweep records each
// distinct (scenario, seed) mobility process once — keyed by
// ContactFingerprint — and replays it for every series and x-axis cell
// that shares it, making multi-cell sweeps several times faster with
// provably unchanged results. ExperimentOptions.ContactCache shares the
// recorded traces across experiments (nil gives each run its own):
//
//	cache := &vdtn.ContactCache{}
//	opt := vdtn.ExperimentOptions{Seeds: []uint64{1, 2, 3}, ContactCache: cache}
//	res, err := vdtn.RunExperimentE(exp, opt) // identical to running each cell live
//
// # Cancellation, observation, and result sinks
//
// Long work is context-aware: RunContext cancels a single run at an
// event-loop checkpoint (deterministically — never a torn Result), and
// the sweep Runner adds progress observation (ExperimentObserver) and
// pluggable result storage (ExperimentSink: in-memory, streaming JSONL
// for sweeps too large for RAM, or a tee of both):
//
//	var mem vdtn.ExperimentMemorySink
//	r := vdtn.Runner{Options: opt, Sink: &mem}
//	if err := r.Run(ctx, exp); err != nil { ... } // ctx.Err() when cancelled
//	res := mem.Results() // complete cells delivered before the cut
package vdtn

import (
	"context"
	"io"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/contactplan"
	"vdtn/internal/core"
	"vdtn/internal/experiments"
	"vdtn/internal/reports"
	"vdtn/internal/routing"
	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/stats"
	"vdtn/internal/trace"
	"vdtn/internal/wireless"
	"vdtn/internal/xrand"
)

// Core simulation types.
type (
	// Config fully describes a scenario; see DefaultConfig and PaperConfig.
	Config = sim.Config
	// Result is the outcome of one run.
	Result = sim.Result
	// Report is the metric block inside a Result.
	Report = stats.Report
	// World is an assembled scenario; use NewWorld for stepping access,
	// or Run for the common build-and-run path.
	World = sim.World
	// ProtocolKind selects the routing protocol.
	ProtocolKind = sim.ProtocolKind
	// PolicyKind selects the combined scheduling-dropping policy.
	PolicyKind = sim.PolicyKind
)

// Routing extension points: implement Router (and receive Peer views) to
// plug a custom protocol into Config.NewRouter. The remaining aliases are
// the types a Router implementation touches: its node buffer, the message
// replicas in it, and the deterministic random stream the simulator hands
// each node.
type (
	// Router is the routing-protocol interface. A transfer aborts only
	// when its contact breaks, so OnAbort is always followed by
	// ContactDown for the same peer: a queue kept for that peer is
	// dropped there, and re-queueing the aborted replica gains nothing.
	Router = routing.Router
	// Peer is a router's view of a connected remote node: a concrete
	// type the simulator builds once per node, whose ID, Has,
	// HasDelivered and Router methods read that node's live state. The
	// built-in routers' send-queue rebuilds walk the buffer's keys
	// against it (Buffer.Sorted).
	Peer = routing.Peer
	// Send is one transmission decision. A Router may hand out the same
	// Send from every NextSend call: the simulator reads it only until
	// that transfer completes or aborts (see Router.NextSend).
	Send = routing.Send
	// Buffer is a node's capacity-bounded message store.
	Buffer = buffer.Store
	// Message is one replica of a DTN bundle.
	Message = bundle.Message
	// MessageID identifies a message across all replicas.
	MessageID = bundle.ID
	// Rand is the per-node deterministic random stream.
	Rand = xrand.Rand
	// SchedulingPolicy orders transmissions at a contact. Compare is the
	// time-free total order (ties broken by message id) routers keep their
	// buffers sorted by; Order receives a group in Compare order and puts
	// it into transmission order (a no-op unless the schedule draws, as
	// Random does); KeepsCompareOrder reports that no-op, which lets the
	// built-in routers skip Order and read send queues lazily.
	SchedulingPolicy = core.SchedulingPolicy
	// DropPolicy picks buffer-overflow victims.
	DropPolicy = core.DropPolicy
)

// Drop-policy constructors for custom routers.
func NewFIFODrop() DropPolicy        { return core.FIFODrop{} }
func NewLifetimeASCDrop() DropPolicy { return core.LifetimeASCDrop{} }

// Protocols.
const (
	ProtoEpidemic            = sim.ProtoEpidemic
	ProtoSprayAndWait        = sim.ProtoSprayAndWait
	ProtoSprayAndWaitVanilla = sim.ProtoSprayAndWaitVanilla
	ProtoMaxProp             = sim.ProtoMaxProp
	ProtoPRoPHET             = sim.ProtoPRoPHET
	ProtoDirectDelivery      = sim.ProtoDirectDelivery
	ProtoFirstContact        = sim.ProtoFirstContact
)

// Policies: the paper's Table I, then the extended literature policies.
const (
	PolicyFIFOFIFO      = sim.PolicyFIFOFIFO
	PolicyRandomFIFO    = sim.PolicyRandomFIFO
	PolicyLifetime      = sim.PolicyLifetime
	PolicySize          = sim.PolicySize
	PolicyHopMOFO       = sim.PolicyHopMOFO
	PolicyFIFOOldestAge = sim.PolicyFIFOOldestAge
)

// DefaultConfig returns the paper's scenario (§III): 40 vehicles and 5
// relays on a Helsinki-like map, 802.11b radios, 12 simulated hours.
func DefaultConfig() Config { return sim.DefaultConfig() }

// PaperConfig returns the paper scenario at one evaluation point.
func PaperConfig(ttlMinutes float64, proto ProtocolKind, pol PolicyKind, seed uint64) Config {
	return sim.PaperConfig(ttlMinutes, proto, pol, seed)
}

// NewWorld assembles a scenario for inspection or stepping.
func NewWorld(cfg Config) (*World, error) { return sim.New(cfg) }

// Run assembles and runs a scenario to completion.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext assembles and runs a scenario under ctx. Cancellation is
// cooperative and deterministic: the run stops between two events of the
// simulation's deterministic event order — never inside one — and
// returns ctx.Err() with a zero Result, so a caller can never observe a
// torn half-run Result. Everything traced before the cut is a prefix of
// the uninterrupted run's trace. A run whose final event fires before
// the cancellation is noticed completes normally.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	w, err := sim.New(cfg)
	if err != nil {
		return Result{}, err
	}
	return w.RunContext(ctx)
}

// Contact-plan mode: drive connectivity from an explicit schedule (a
// recorded vehicular connectivity trace or a scripted topology) instead of
// mobility and radio range. Assign a plan to Config.Plan and optionally
// script exact traffic via Config.Script.
type (
	// ContactPlan is a validated, time-ordered contact schedule.
	ContactPlan = contactplan.Plan
	// Contact is one window between two nodes — the simulator's one
	// contact-window type: plans, RecordingPlan and scenario files all
	// hold it.
	Contact = contactplan.Contact
	// ScriptedMessage is one deterministic traffic entry.
	ScriptedMessage = sim.ScriptedMessage
)

// NewContactPlan validates and normalizes a contact list.
func NewContactPlan(contacts []Contact) (*ContactPlan, error) {
	return contactplan.New(contacts)
}

// ParseContactPlan reads the "start end nodeA nodeB" text format.
func ParseContactPlan(text string) (*ContactPlan, error) {
	return contactplan.Parse(text)
}

// Contact recording and replay: capture a scenario's contact transitions
// and re-drive later runs from the trace, bit-identically (see the package
// comment). Select via Config.ReplaySource.
type (
	// ContactRecording is a captured contact transition trace.
	ContactRecording = wireless.Recording
	// ContactTransition is one recorded contact state change.
	ContactTransition = wireless.Transition
	// ContactCache memoizes recorded traces by scenario fingerprint for
	// the experiment harness: every sweep replays through one, its
	// ExperimentOptions.ContactCache or a private one per run. With Dir
	// set it persists traces in a sharded directory and serves them on
	// later runs as ContactRecordingView values; MaxBytes bounds
	// the store with LRU eviction by file mtime.
	ContactCache = experiments.ContactCache
	// ContactRecordingView is a read-only view of a binary trace — the
	// only decoder of the trace format and the only thing a replay run
	// reads (assign one to Config.ReplaySource): validated once at open,
	// replayed with zero per-run trace allocation, shareable across
	// concurrent runs. Materialize yields the in-memory ContactRecording.
	ContactRecordingView = wireless.RecordingView
	// ContactRecordingMeta is a trace's fixed-size description (scan
	// interval, horizon, transition count).
	ContactRecordingMeta = wireless.RecordingMeta
)

// Contact-cache event kinds delivered to experiment observers.
const (
	ExperimentCacheHit      = experiments.CacheHit
	ExperimentCacheHitDisk  = experiments.CacheHitDisk
	ExperimentCacheRecorded = experiments.CacheRecorded
)

// RecordContacts simulates only cfg's mobility and proximity layer and
// returns the contact trace a full live run would record.
func RecordContacts(cfg Config) (*ContactRecording, error) { return sim.RecordContacts(cfg) }

// RecordContactsContext is RecordContacts checking ctx between events:
// cancellation stops the recording pass promptly at an event boundary and
// returns ctx.Err() with no recording — a torn trace never escapes.
func RecordContactsContext(ctx context.Context, cfg Config) (*ContactRecording, error) {
	return sim.RecordContactsContext(ctx, cfg)
}

// EncodeContactRecordingBinary renders rec in the integrity-checked binary
// codec (magic + version header, varint-delta transition stream, count and
// CRC32 footer) — the one persisted trace format; OpenContactRecordingView
// reads it back.
func EncodeContactRecordingBinary(rec *ContactRecording) []byte {
	return wireless.EncodeBinary(rec)
}

// NewContactRecordingView validates the binary trace in data (as
// EncodeContactRecordingBinary renders it) once and returns a view over
// those bytes, which must stay unmodified while the view is in use.
// Corrupt or truncated input is reported as an error.
func NewContactRecordingView(data []byte) (*ContactRecordingView, error) {
	return wireless.NewRecordingView(data)
}

// OpenContactRecordingView reads the binary trace at path into memory and
// validates it once (CRC32, count, structural rules). The returned view
// replays bit-identically to the recording it was encoded from, whatever
// happens to the file afterwards. Truncated or corrupt files are reported
// as errors, never decoded as a shorter trace.
func OpenContactRecordingView(path string) (*ContactRecordingView, error) {
	return wireless.OpenRecordingView(path)
}

// RecordingPlan converts a recording into a contact plan (open contacts
// are closed at the trace horizon).
func RecordingPlan(rec *ContactRecording) (*ContactPlan, error) { return sim.RecordingPlan(rec) }

// ContactFingerprint returns the stable key identifying cfg's contact
// process — what ContactCache keys recorded traces on. It hashes exactly
// the config fields RecordContacts reads, so configs that share a key
// share a recorded trace.
func ContactFingerprint(cfg Config) string { return sim.ContactFingerprint(cfg) }

// Tracing and streaming analysis. Install a consumer via Config.Trace:
//
//	tracker := vdtn.NewTraceTracker()
//	cfg.Trace = tracker.Emit
//	vdtn.Run(cfg)
//	analysis := tracker.Analysis(cfg.Duration)
type (
	// TraceEvent is one simulation event record.
	TraceEvent = trace.Event
	// TraceKind enumerates event kinds (TraceContactUp, ...).
	TraceKind = trace.Kind
	// TraceLog is an in-memory trace consumer.
	TraceLog = trace.Log
	// TraceWriter streams events as TSV.
	TraceWriter = trace.Writer
	// TraceTracker analyzes an event stream as it arrives.
	TraceTracker = reports.Tracker
	// TraceAnalysis is the offline report derived from a trace.
	TraceAnalysis = reports.Analysis
)

// Trace event kinds.
const (
	TraceContactUp        = trace.ContactUp
	TraceContactDown      = trace.ContactDown
	TraceTransferStart    = trace.TransferStart
	TraceTransferComplete = trace.TransferComplete
	TraceTransferAbort    = trace.TransferAbort
	TraceCreated          = trace.Created
	TraceDelivered        = trace.Delivered
	TraceRelayAccepted    = trace.RelayAccepted
	TraceRelayRejected    = trace.RelayRejected
	TraceDropped          = trace.Dropped
	TraceExpired          = trace.Expired
)

// NewTraceWriter returns a streaming TSV trace consumer writing to w;
// install its Emit method as Config.Trace.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceTracker returns an empty streaming trace analyzer: install its
// Emit method as Config.Trace, and its Analysis derives contact statistics,
// transfer outcomes, message fates and delivery paths from the events.
func NewTraceTracker() *TraceTracker { return reports.NewTracker() }

// Experiment harness re-exports: the declarative sweep engine that
// regenerates the paper's figures and runs user-defined sweeps from JSON
// specs.
type (
	// Experiment is one reproducible sweep: a figure, an ablation, or a
	// loaded spec — series swept over one named axis.
	Experiment = experiments.Experiment
	// ExperimentScenario is one series of an experiment.
	ExperimentScenario = experiments.Scenario
	// ExperimentSetting is one fixed, declarative axis assignment.
	ExperimentSetting = experiments.Setting
	// ExperimentGridAxis is one secondary swept dimension of a multi-axis
	// grid sweep (Experiment.Grid); cells are the cross-product of the
	// primary axis and every grid axis.
	ExperimentGridAxis = experiments.GridAxis
	// ExperimentOptions controls replication, parallelism and scale.
	ExperimentOptions = experiments.Options
	// Runner executes sweeps with cooperative cancellation, progress
	// observation, and pluggable result sinks — the composable successor
	// of the fire-and-forget run calls.
	Runner = experiments.Runner
	// ExperimentObserver receives a running sweep's lifecycle events
	// (cells starting and finishing with timing, contact-cache traffic).
	// Embed ExperimentBaseObserver to implement only some of them.
	ExperimentObserver = experiments.Observer
	// ExperimentBaseObserver is the no-op observer for embedding.
	ExperimentBaseObserver = experiments.BaseObserver
	// ExperimentProgressObserver renders a running sweep as a single live
	// cell counter line with elapsed time and ETA — the observer behind
	// cmd/experiments -progress and the vdtnd daemon's progress echo.
	ExperimentProgressObserver = experiments.ProgressObserver
	// ExperimentCellID identifies one cell in observer progress reports.
	ExperimentCellID = experiments.CellID
	// ExperimentCacheEvent is one contact-cache lookup outcome delivered
	// to observers (hit, disk load, or an executed recording pass).
	ExperimentCacheEvent = experiments.CacheEvent
	// ExperimentCacheEventKind classifies a cache event.
	ExperimentCacheEventKind = experiments.CacheEventKind
	// ExperimentSink consumes a sweep's finished cells in deterministic
	// aggregation order (see experiments.ResultSink for the contract).
	ExperimentSink = experiments.ResultSink
	// ExperimentMemorySink accumulates delivered cells into an
	// ExperimentResults — the default sink behind RunExperimentE.
	ExperimentMemorySink = experiments.MemorySink
	// ExperimentJSONLSink streams cells as JSON lines for sweeps too
	// large to hold in memory; see NewExperimentJSONLSink.
	ExperimentJSONLSink = experiments.JSONLSink
	// ExperimentResults stores every cell's complete Result; Table
	// renders any metric view, JSON emits the machine-readable artifact.
	ExperimentResults = experiments.Results
	// ExperimentCellResult is one (series, x, seed) cell's full outcome.
	ExperimentCellResult = experiments.CellResult
	// ExperimentSweepPrefix is the validated complete-cell prefix of a
	// JSONL sweep stream — what ReadExperimentJSONLPrefix recovers from an
	// interrupted run and Runner.ResumeFrom finishes without re-simulating.
	ExperimentSweepPrefix = experiments.SweepPrefix
	// ExperimentTable is one metric view with rendering helpers.
	ExperimentTable = experiments.Table
	// ExperimentMetric names one scalar view of a run result.
	ExperimentMetric = experiments.Metric
	// ExperimentRegistry merges the built-in catalog with loaded specs.
	ExperimentRegistry = experiments.Registry
	// SweepAxis is a named, serializable swept parameter.
	SweepAxis = scenario.Axis
)

// The metrics sweeps report; any of them can be rendered from one
// finished ExperimentResults (see experiments.Metrics for the full list).
const (
	MetricAvgDelayMin  = experiments.MetricAvgDelayMin
	MetricDeliveryProb = experiments.MetricDeliveryProb
	MetricOverhead     = experiments.MetricOverhead
)

// ExperimentMetrics lists every known metric identifier.
func ExperimentMetrics() []ExperimentMetric { return experiments.Metrics() }

// Experiments returns the built-in catalog: the paper's Figures 4-9 and
// the ablation sweeps, expressed on the named sweep axes.
func Experiments() []Experiment { return experiments.Catalog() }

// ExperimentByID finds one built-in experiment ("fig4" ... "fig9",
// "ablation-rate", ...).
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// NewExperimentRegistry returns a registry preloaded with the built-in
// catalog; add user specs with AddSpec.
func NewExperimentRegistry() *ExperimentRegistry { return experiments.NewRegistry() }

// LoadExperimentSpec parses an on-disk sweep spec — a scenario JSON file
// with "sweep" and "series" blocks (see docs/SWEEPS.md) — into a runnable
// Experiment.
func LoadExperimentSpec(data []byte) (Experiment, error) { return experiments.LoadSpec(data) }

// ExperimentSpecJSON renders an experiment back into the spec schema;
// built-in figures export as self-contained files that reload
// bit-identically.
func ExperimentSpecJSON(e Experiment) ([]byte, error) { return experiments.SpecJSON(e) }

// SweepAxes returns the fixed set of sweep axes, sorted by name.
func SweepAxes() []SweepAxis { return scenario.Axes() }

// SweepAxisByName looks an axis up by its stable name ("ttl_min",
// "vehicles", ...).
func SweepAxisByName(name string) (SweepAxis, bool) { return scenario.AxisByName(name) }

// NewExperimentJSONLSink returns a sink streaming a sweep's cells as
// JSON lines to w: a header identifying the sweep, one line per cell in
// deterministic aggregation order, and a footer recording the cell count
// and outcome. The caller keeps ownership of w.
func NewExperimentJSONLSink(w io.Writer) *ExperimentJSONLSink {
	return experiments.NewJSONLSink(w)
}

// NewExperimentJSONLSinkResume returns a JSONL sink appending to a stream
// that already holds prefix (truncated after prefix.Offset): the header
// and the prefix's cell lines are counted but not re-written, so the
// finished stream is byte-identical to an uninterrupted run's. Pair it
// with Runner.ResumeFrom set to the same prefix.
func NewExperimentJSONLSinkResume(w io.Writer, prefix *ExperimentSweepPrefix) *ExperimentJSONLSink {
	return experiments.NewJSONLSinkResume(w, prefix)
}

// ReadExperimentJSONLPrefix decodes a JSONL sweep stream written for exp
// under opt and returns its clean complete-cell prefix: the reader side
// of the JSONL format, tolerant of exactly the damage a crash inflicts (a
// truncated trailing line) and strict about everything else — a stream
// from a different sweep, seed list, or scale is refused, never silently
// resumed. See ExperimentSweepPrefix for how the prefix drives a resume.
func ReadExperimentJSONLPrefix(data []byte, exp Experiment, opt ExperimentOptions) (*ExperimentSweepPrefix, error) {
	return experiments.ReadJSONLPrefix(data, exp, opt)
}

// TeeExperimentSink duplicates every delivered cell to each sink: render
// tables from a memory sink while a JSONL sink archives the same sweep.
func TeeExperimentSink(sinks ...ExperimentSink) ExperimentSink {
	return experiments.TeeSink(sinks...)
}

// RunExperimentE executes an experiment to completion and stores every
// cell's complete Result, reporting the first failing cell — with its
// (series, grid, x, seed) coordinates — as an error instead of
// panicking. Render tables from the returned Results via DefaultTable or
// Table(metric). It is the uncancellable convenience form of Runner.Run
// with a memory sink; use a Runner directly for cancellation, progress
// observation, or streaming sinks.
func RunExperimentE(e Experiment, opt ExperimentOptions) (*ExperimentResults, error) {
	return experiments.RunE(e, opt)
}

// ExperimentCellConfigs returns the fully materialized configuration of
// every (series, x, seed) cell of the sweep — the input
// ContactCache.Prewarm wants when pre-recording contact traces across
// several experiments before any of them runs.
func ExperimentCellConfigs(e Experiment, opt ExperimentOptions) ([]Config, error) {
	return experiments.CellConfigs(e, opt)
}
