// Benchmarks regenerating the paper's evaluation: one testing.B benchmark
// per table and figure (and per catalog ablation), each running the full
// experiment on a time-scaled scenario and reporting the headline metric.
//
// The scale (benchScale of the paper's 12-hour horizon) keeps `go test
// -bench=.` tractable while preserving the result *shape*; the full-
// fidelity tables come from `go run ./cmd/experiments -figure all`.
package vdtn_test

import (
	"slices"
	"testing"

	"vdtn"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// benchScale shrinks the simulated horizon for benchmark runs (0.25 =
// 3 simulated hours).
const benchScale = 0.25

// runExperiment executes the catalog experiment under the bench scale and
// reports the mean of the first and last series' final cells, so a bench
// run surfaces the headline comparison without drowning the output.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := vdtn.ExperimentByID(id)
	if !ok {
		b.Fatalf("experiment %q not in catalog", id)
	}
	opt := vdtn.ExperimentOptions{Seeds: []uint64{1}, Scale: benchScale}
	var tbl vdtn.ExperimentTable
	for i := 0; i < b.N; i++ {
		res, err := vdtn.RunExperimentE(exp, opt)
		if err != nil {
			b.Fatal(err)
		}
		tbl = res.DefaultTable()
	}
	last := len(exp.Xs) - 1
	first := tbl.Series[0].Cells[last].Summary.Mean
	worst := tbl.Series[len(tbl.Series)-1].Cells[last].Summary.Mean
	b.ReportMetric(first, "series0_xmax")
	b.ReportMetric(worst, "seriesN_xmax")
	b.ReportMetric(float64(len(exp.Scenarios)*len(exp.Xs)), "simruns/op")
}

// BenchmarkTable1PolicyOrdering covers the paper's Table I: the cost of
// the three combined scheduling policies ordering a full vehicle buffer
// handed over in Compare order, as routers keep it. The deterministic
// schedules have nothing left to do; Random pays for its shuffle.
func BenchmarkTable1PolicyOrdering(b *testing.B) {
	rng := xrand.New(1)
	msgs := make([]*bundle.Message, 800) // ~a full 100 MB buffer of ~1.25MB bundles
	for i := range msgs {
		m := bundle.New(bundle.ID(i+1), 0, 1, units.KB(1250), rng.Float64()*1000, 3600+rng.Float64()*7200)
		m.ReceivedAt = rng.Float64() * 5000
		msgs[i] = m
	}
	for _, pol := range []core.SchedulingPolicy{
		core.FIFOSchedule{},
		core.RandomSchedule{Rng: xrand.New(2)},
		core.LifetimeDESCSchedule{},
	} {
		b.Run(pol.Name(), func(b *testing.B) {
			sorted := slices.Clone(msgs)
			slices.SortFunc(sorted, pol.Compare)
			work := make([]*bundle.Message, len(msgs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, sorted)
				pol.Order(5000, work)
			}
		})
	}
}

// BenchmarkFig4EpidemicDelay regenerates Figure 4: message average delay
// under Epidemic routing for the three Table I policies across the TTL
// sweep.
func BenchmarkFig4EpidemicDelay(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5EpidemicDelivery regenerates Figure 5: delivery probability
// under Epidemic routing.
func BenchmarkFig5EpidemicDelivery(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6SprayWaitDelay regenerates Figure 6: message average delay
// under binary Spray-and-Wait (N=12).
func BenchmarkFig6SprayWaitDelay(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7SprayWaitDelivery regenerates Figure 7: delivery
// probability under binary Spray-and-Wait.
func BenchmarkFig7SprayWaitDelivery(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8ProtocolDelivery regenerates Figure 8: delivery probability
// for Epidemic-Lifetime, SprayAndWait-Lifetime, MaxProp and PRoPHET.
func BenchmarkFig8ProtocolDelivery(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9ProtocolDelay regenerates Figure 9: message average delay
// for the four protocols.
func BenchmarkFig9ProtocolDelay(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkAblationRate regenerates the link-rate ablation (paper §III.C
// conjecture: scarcer bandwidth amplifies the policy impact).
func BenchmarkAblationRate(b *testing.B) { runExperiment(b, "ablation-rate") }

// BenchmarkAblationBuffer regenerates the buffer-size ablation.
func BenchmarkAblationBuffer(b *testing.B) { runExperiment(b, "ablation-buffer") }

// BenchmarkAblationCopies regenerates the Spray-and-Wait copy-budget
// ablation.
func BenchmarkAblationCopies(b *testing.B) { runExperiment(b, "ablation-copies") }

// BenchmarkAblationRelays regenerates the relay-count ablation.
func BenchmarkAblationRelays(b *testing.B) { runExperiment(b, "ablation-relays") }

// BenchmarkExperimentLive is the reference for the contact-cache
// comparison: fig5's 15-cell sweep with every cell simulating its
// mobility live (see liveTable). BenchmarkFig5EpidemicDelivery runs the
// same sweep replaying one recorded trace per seed, bit-identical
// (see TestContactCacheSpeedupArtifact); only the wall clock moves.
func BenchmarkExperimentLive(b *testing.B) {
	exp, ok := vdtn.ExperimentByID("fig5")
	if !ok {
		b.Fatal("fig5 not in catalog")
	}
	opt := vdtn.ExperimentOptions{Seeds: []uint64{1}, Scale: benchScale}
	for i := 0; i < b.N; i++ {
		liveTable(b, exp, opt)
	}
	b.ReportMetric(float64(len(exp.Scenarios)*len(exp.Xs)), "simruns/op")
}

// BenchmarkPaperRun measures one full-fidelity 12-hour paper scenario run
// (Epidemic/Lifetime at TTL 120), the unit of cost behind every figure.
func BenchmarkPaperRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := vdtn.PaperConfig(120, vdtn.ProtoEpidemic, vdtn.PolicyLifetime, uint64(i+1))
		if _, err := vdtn.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
