// Package lintcfg is the shared configuration layer of the vdtnlint
// analyzer suite: it declares which packages are determinism-critical,
// which packages have their goroutines audited, and where the written
// contract lives. Analyzers consult this package instead of
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
// pinned by golden tests.
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

// CheckpointFuncs name scheduler-level checkpoint primitives: a loop that
// reaches one of these observes cancellation even without touching a
// context directly, because the callee polls the check function between
// events (see event.Scheduler.RunUntilCheck and the RecordContactsContext
// recording pass).
var CheckpointFuncs = []string{"RunUntilCheck"}
