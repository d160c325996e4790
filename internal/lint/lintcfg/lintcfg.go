// Package lintcfg is the shared configuration layer of the vdtnlint
// analyzer suite: it declares which packages are determinism-critical,
// which lock hierarchies the lockorder analyzer models, and where the
// written contract lives. Analyzers consult this package instead of
// hard-coding paths so the policy has exactly one home.
package lintcfg

import "strings"

// DocPath points diagnostics at the determinism contract.
const DocPath = "docs/DETERMINISM.md"

// CriticalPackages lists the determinism-critical packages: everything a
// simulated trace's bytes flow through. Inside them (and their
// subpackages) map iteration order, wall clocks, global math/rand, the
// process environment, and racing selects are all forbidden — randomness
// must come from internal/xrand named streams and time from the event
// scheduler, so a run stays a pure function of (config, seed).
//
// internal/xrand itself is deliberately absent: it is the sanctioned
// randomness substrate. internal/experiments is absent too — sweep
// orchestration may time itself and read the environment; its
// determinism obligations (sink byte-stability, cache integrity) are
// pinned by golden tests and by the lockorder analyzer.
var CriticalPackages = []string{
	"vdtn/internal/sim",
	"vdtn/internal/wireless",
	"vdtn/internal/event",
	"vdtn/internal/routing",
	"vdtn/internal/mobility",
	"vdtn/internal/buffer",
	"vdtn/internal/scenario",
}

// IsCritical reports whether path is a determinism-critical package or a
// subpackage of one.
func IsCritical(path string) bool {
	return inSet(CriticalPackages, path)
}

// GoAuditPackages lists packages that are not determinism-critical — they
// may read wall clocks and the environment — but whose goroutine fan-out
// must still be individually auditable. The service layer qualifies: its
// scheduler and event hub sit between HTTP handlers and the Runner, and
// an unjustified goroutine there is exactly where a "daemon artifact
// differs from CLI artifact" bug would hide. detgo audits these packages
// alongside the critical set; the other analyzers (wall clocks, env,
// map iteration) do not apply.
var GoAuditPackages = []string{
	"vdtn/internal/service",
	"vdtn/cmd/vdtnd",
}

// IsGoAudited reports whether path's goroutine launches are audited:
// every determinism-critical package plus the GoAuditPackages set.
func IsGoAudited(path string) bool {
	return IsCritical(path) || inSet(GoAuditPackages, path)
}

// inSet reports whether path is one of pkgs or a subpackage of one.
func inSet(pkgs []string, path string) bool {
	for _, p := range pkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// A LockClass is one level of a documented lock hierarchy. Lower ranks
// are acquired first (outermost): with the trace store's shard → mu →
// root order, acquiring a lower-ranked class while a higher-ranked one is
// held is an inversion.
type LockClass struct {
	// Name labels the class in diagnostics ("shard", "mu", "root").
	Name string

	// Rank orders acquisition: a class may only be acquired while every
	// held class has a strictly lower rank.
	Rank int

	// Funcs name the functions whose call acquires this class and returns
	// an unlock func. Methods are written "(*recv).name", package-level
	// functions bare.
	Funcs []string

	// Mutexes name sync.Mutex struct fields, written "Type.field"; the
	// class is acquired by field.Lock() and released by field.Unlock().
	Mutexes []string
}

// LockOrderSpec declares one package's lock hierarchy for the lockorder
// analyzer.
type LockOrderSpec struct {
	// Packages lists the import paths the hierarchy applies to.
	Packages []string

	// Classes lists the hierarchy's levels, any rank order.
	Classes []LockClass

	// Exempt names functions whose bodies implement a lock class: the
	// helper wrapping the raw primitive is classified by its own name at
	// call sites, so the primitive calls inside it must not be
	// re-classified as a different class.
	Exempt []string
}

// LockOrder models the trace store's documented hierarchy
// (internal/experiments/store.go, docs/DETERMINISM.md): the per-shard
// flock serializing trace installs against GC evictions is outermost, a
// store mutex would come next, and any other lockExclusive flock is
// innermost. The store today takes only the shard flock; the inner
// classes keep any lock added back under it from being taken the other
// way round — a GC holding such a lock while taking a shard flock would
// deadlock against a writer that holds its shard flock first.
var LockOrder = LockOrderSpec{
	Packages: []string{"vdtn/internal/experiments"},
	Classes: []LockClass{
		{Name: "shard", Rank: 1, Funcs: []string{"(*traceStore).lockShard"}},
		{Name: "mu", Rank: 2, Mutexes: []string{"traceStore.mu"}},
		{Name: "root", Rank: 3, Funcs: []string{"lockExclusive"}},
	},
	Exempt: []string{"(*traceStore).lockShard"},
}

// CheckpointFuncs name scheduler-level checkpoint primitives: a loop that
// reaches one of these observes cancellation even without touching a
// context directly, because the callee polls the check function between
// events (see event.Scheduler.RunUntilCheck and the RecordContactsContext
// recording pass).
var CheckpointFuncs = []string{"RunUntilCheck"}
