package contactplan_test

import (
	"slices"
	"testing"

	"vdtn/internal/contactplan"
	"vdtn/internal/event"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
)

// FuzzParsePlan drives the plan parser with arbitrary text. Parse must
// never panic, and every plan it accepts must run through
// wireless.Medium.StartPlan: after each instant at which a window opens or
// closes, the medium's adjacency lists must pass CheckInvariants and hold
// exactly the windows open at that instant.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"10 20 0 1\n30.5 40 1 2\n",
		"# touching and overlapping windows merge\n0 5 0 1\n5 9 1 0\n2 3 0 2\n4 6 0 2\n",
		"0 NaN 1 2",
		"NaN 5 1 2",
		"0 +Inf 1 2",
		"1e308 1.7e308 3 4\n0 1e308 3 4\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := contactplan.Parse(text)
		if err != nil || p.MaxNode() > 64 {
			return // rejected, or too many nodes for a quick run
		}
		s := event.NewScheduler()
		m := wireless.NewMedium(s, wireless.Config{Range: 30, Rate: units.Mbit(6), ScanInterval: 1}, p.MaxNode()+1)
		windows := p.Windows()
		var instants []float64
		for _, w := range windows {
			instants = append(instants, w.Start, w.End)
		}
		m.StartPlan(p)
		slices.Sort(instants)
		for _, now := range slices.Compact(instants) {
			s.RunUntil(now)
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("t=%v: %v", now, err)
			}
			// Merged windows of one pair never overlap, so the open
			// windows are exactly the connected pairs.
			open := 0
			for _, w := range windows {
				if w.Start <= now && now < w.End {
					open++
					if !m.Connected(w.A, w.B) {
						t.Fatalf("t=%v: window %+v open but pair not connected", now, w)
					}
				}
			}
			degree := 0
			for id := 0; id <= p.MaxNode(); id++ {
				degree += len(m.PeersOf(id))
			}
			if degree != 2*open {
				t.Fatalf("t=%v: total degree %d, %d open windows", now, degree, open)
			}
		}
	})
}
