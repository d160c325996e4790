package vdtn_test

import (
	"testing"

	"vdtn"
)

// These tests assert the paper's qualitative claims — the shapes of
// Figures 4-9 — on time-scaled runs of the actual experiment catalog.
// They are the repository's regression net: if a refactor silently breaks
// a protocol or policy, the claim orderings flip long before anyone reads
// the figures (README, "Quick start: reproduce a paper figure", lists
// them). They run multi-seed scaled scenarios (~a minute in total), so
// they are skipped under -short.

// claimCache shares one contact cache across all claim tests: every
// figure sweeps the same scenario at the same seeds, so the whole suite
// needs exactly two mobility simulations (one per seed). Replayed cells
// are bit-identical to live ones, so the claims are tested at full
// default-mode fidelity.
var claimCache = &vdtn.ContactCache{}

// claimOptions: two seeds at a quarter of the paper's horizon keeps the
// orderings stable while staying test-suite friendly.
func claimOptions() vdtn.ExperimentOptions {
	return vdtn.ExperimentOptions{Seeds: []uint64{1, 2}, Scale: 0.25, ContactCache: claimCache}
}

// runCatalog runs a catalog experiment and returns mean metric per
// (series name, x index).
func runCatalog(t *testing.T, id string) map[string][]float64 {
	t.Helper()
	exp, ok := vdtn.ExperimentByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	res, err := vdtn.RunExperimentE(exp, claimOptions())
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.DefaultTable()
	out := make(map[string][]float64)
	for _, s := range tbl.Series {
		means := make([]float64, len(s.Cells))
		for i, c := range s.Cells {
			means[i] = c.Summary.Mean
		}
		out[s.Name] = means
	}
	return out
}

// TestClaimPolicyOrderingEpidemic pins the paper's §III.A result: for
// Epidemic routing, FIFO-FIFO is worst and Lifetime best on both metrics,
// with Random-FIFO in between, at every TTL.
func TestClaimPolicyOrderingEpidemic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical claim test")
	}
	delay := runCatalog(t, "fig4")
	prob := runCatalog(t, "fig5")
	for i := range delay["FIFO-FIFO"] {
		f, r, l := delay["FIFO-FIFO"][i], delay["Random-FIFO"][i], delay["LifetimeDESC-LifetimeASC"][i]
		if !(l < r && r < f) {
			t.Errorf("ttl point %d: delay ordering broken: lifetime %.1f, random %.1f, fifo %.1f", i, l, r, f)
		}
		pf, pr, pl := prob["FIFO-FIFO"][i], prob["Random-FIFO"][i], prob["LifetimeDESC-LifetimeASC"][i]
		if !(pl > pr && pr > pf) {
			t.Errorf("ttl point %d: delivery ordering broken: lifetime %.3f, random %.3f, fifo %.3f", i, pl, pr, pf)
		}
	}
}

// TestClaimPolicyOrderingSprayWait pins §III.B: the same ordering holds
// for binary Spray and Wait.
func TestClaimPolicyOrderingSprayWait(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical claim test")
	}
	delay := runCatalog(t, "fig6")
	prob := runCatalog(t, "fig7")
	for i := range delay["FIFO-FIFO"] {
		if l, f := delay["LifetimeDESC-LifetimeASC"][i], delay["FIFO-FIFO"][i]; l >= f {
			t.Errorf("ttl point %d: S&W lifetime delay %.1f not below FIFO %.1f", i, l, f)
		}
		if pl, pf := prob["LifetimeDESC-LifetimeASC"][i], prob["FIFO-FIFO"][i]; pl <= pf {
			t.Errorf("ttl point %d: S&W lifetime delivery %.3f not above FIFO %.3f", i, pl, pf)
		}
	}
}

// TestClaimDelayGainGrowsWithTTL pins the paper's observation that the
// Lifetime policy's delay advantage widens as TTL grows (6→29 minutes in
// the paper's Figure 4).
func TestClaimDelayGainGrowsWithTTL(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical claim test")
	}
	delay := runCatalog(t, "fig4")
	n := len(delay["FIFO-FIFO"])
	gainFirst := delay["FIFO-FIFO"][0] - delay["LifetimeDESC-LifetimeASC"][0]
	gainLast := delay["FIFO-FIFO"][n-1] - delay["LifetimeDESC-LifetimeASC"][n-1]
	if gainLast <= gainFirst {
		t.Errorf("delay gain did not grow with TTL: %.1f min at the low end, %.1f at the high end",
			gainFirst, gainLast)
	}
}

// TestClaimProtocolComparison pins §III.C: policy-equipped Spray and Wait
// beats MaxProp on delay at every TTL, and PRoPHET has the lowest
// delivery probability of the four protocols across the sweep.
func TestClaimProtocolComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical claim test")
	}
	prob := runCatalog(t, "fig8")
	delay := runCatalog(t, "fig9")
	for i := range prob["PRoPHET"] {
		p := prob["PRoPHET"][i]
		for _, other := range []string{"Epidemic", "SprayAndWait", "MaxProp"} {
			if p >= prob[other][i] {
				t.Errorf("ttl point %d: PRoPHET delivery %.3f not below %s %.3f", i, p, other, prob[other][i])
			}
		}
		if snw, mx := delay["SprayAndWait"][i], delay["MaxProp"][i]; snw >= mx {
			t.Errorf("ttl point %d: S&W delay %.1f not below MaxProp %.1f", i, snw, mx)
		}
	}
}
