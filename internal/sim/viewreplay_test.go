package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vdtn/internal/wireless"
)

// protoPolicyPairs enumerates the full 7×6 protocol × policy matrix the
// replay-equivalence suites sweep.
func protoPolicyPairs() (protos []ProtocolKind, pols []PolicyKind) {
	for k := range protocols {
		protos = append(protos, ProtocolKind(k))
	}
	for k := range policies {
		pols = append(pols, PolicyKind(k))
	}
	return protos, pols
}

// openViewOf encodes rec, persists it, and opens a view of the file —
// the exact path a sweep process takes against a shared cache directory.
func openViewOf(t *testing.T, rec *wireless.Recording) *wireless.RecordingView {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.contactsb")
	if err := os.WriteFile(path, wireless.EncodeBinary(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := wireless.OpenRecordingView(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// viewOf opens a heap-backed view over rec's encoding — the path a contact
// cache miss and vdtnsim -record-contacts take.
func viewOf(t *testing.T, rec *wireless.Recording) *wireless.RecordingView {
	t.Helper()
	v, err := wireless.NewRecordingView(wireless.EncodeBinary(rec))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestViewReplayEquivalence: a contact cache serves a trace through a view
// of the bytes it just encoded on a miss and through a view opened from the
// persisted file on a hit. For every protocol × policy pair the two runs are
// bit-identical — full Result and full event trace — so a sweep's first
// run and its cached reruns fill the same cells.
func TestViewReplayEquivalence(t *testing.T) {
	base := replayConfig(7)
	rec, err := RecordContacts(base)
	if err != nil {
		t.Fatal(err)
	}
	fresh, opened := viewOf(t, rec), openViewOf(t, rec)

	protocols, policies := protoPolicyPairs()
	for _, proto := range protocols {
		for _, pol := range policies {
			t.Run(proto.String()+"/"+pol.String(), func(t *testing.T) {
				cfg := base
				cfg.Protocol = proto
				cfg.Policy = pol

				freshCfg := cfg
				freshCfg.ReplaySource = fresh
				freshRes, freshEvents := runTraced(t, freshCfg)

				openedCfg := cfg
				openedCfg.ReplaySource = opened
				openedRes, openedEvents := runTraced(t, openedCfg)

				if freshRes != openedRes {
					t.Fatalf("opened replay diverged from fresh replay:\nfresh:  %+v\nopened: %+v", freshRes, openedRes)
				}
				if !reflect.DeepEqual(freshEvents, openedEvents) {
					for i := range freshEvents {
						if i >= len(openedEvents) || freshEvents[i] != openedEvents[i] {
							t.Fatalf("event %d diverged: fresh %+v, opened %+v", i, freshEvents[i], eventAt(openedEvents, i))
						}
					}
					t.Fatalf("opened trace has %d extra events", len(openedEvents)-len(freshEvents))
				}
			})
		}
	}
}

// TestViewReplayConcurrentCells replays many cells concurrently from ONE
// shared view — the sweep-worker topology — and checks every cell against
// its serial replay. Run under -race this is the view's thread-safety
// proof: concurrent cursors over one shared stream, no shared mutable
// state.
func TestViewReplayConcurrentCells(t *testing.T) {
	base := replayConfig(9)
	rec, err := RecordContacts(base)
	if err != nil {
		t.Fatal(err)
	}
	fresh, view := viewOf(t, rec), openViewOf(t, rec)

	protocols, policies := protoPolicyPairs()
	type cell struct {
		proto ProtocolKind
		pol   PolicyKind
	}
	var cells []cell
	for _, proto := range protocols {
		for _, pol := range policies {
			cells = append(cells, cell{proto, pol})
		}
	}

	want := make([]Result, len(cells))
	for i, c := range cells {
		cfg := base
		cfg.Protocol = c.proto
		cfg.Policy = c.pol
		cfg.ReplaySource = fresh
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w.Run()
	}

	got := make([]Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			cfg := base
			cfg.Protocol = c.proto
			cfg.Policy = c.pol
			cfg.ReplaySource = view
			w, err := New(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = w.Run()
		}(i, c)
	}
	wg.Wait()
	for i, c := range cells {
		if errs[i] != nil {
			t.Fatalf("%v/%v: %v", c.proto, c.pol, errs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("%v/%v: concurrent shared-view replay diverged:\nwant %+v\ngot  %+v",
				c.proto, c.pol, want[i], got[i])
		}
	}
}

// TestReplaySourceValidation: a view is checked for scenario fit exactly
// like a recording.
func TestReplaySourceValidation(t *testing.T) {
	rec, err := RecordContacts(replayConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	view := openViewOf(t, rec)

	c := replayConfig(1)
	c.ReplaySource = view
	if err := c.Validate(); err != nil {
		t.Fatalf("valid view replay config rejected: %v", err)
	}

	overflow := c
	overflow.Vehicles = 2
	overflow.Relays = 0
	if err := overflow.Validate(); err == nil {
		t.Fatal("view referencing out-of-range nodes accepted")
	}

	tooLong := c
	tooLong.Duration = rec.Duration * 2
	if err := tooLong.Validate(); err == nil {
		t.Fatal("run longer than the view's horizon accepted")
	}
}

// TestReplayValidateAllocatesNothing: a view proved its trace's structure
// when it opened, so validating a replay cell only checks the view's fit
// to the scenario and allocates nothing — no cell re-validates its trace.
func TestReplayValidateAllocatesNothing(t *testing.T) {
	rec, err := RecordContacts(replayConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayConfig(5)
	cfg.ReplaySource = openViewOf(t, rec)
	var verr error
	allocs := testing.AllocsPerRun(100, func() { verr = cfg.Validate() })
	if verr != nil {
		t.Fatalf("valid view replay config rejected: %v", verr)
	}
	if allocs != 0 {
		t.Fatalf("Config.Validate of a view replay allocated %v times per call, want 0", allocs)
	}
}
