package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vdtn/internal/bundle"
	"vdtn/internal/trace"
	"vdtn/internal/units"
)

// TestWorldInvariantsAfterEveryEvent runs every protocol × policy pair
// with World.CheckInvariants after every event, and checks that doing so
// leaves the run's Result and trace as a run without it has them.
func TestWorldInvariantsAfterEveryEvent(t *testing.T) {
	protocols, policies := protoPolicyPairs()
	for _, proto := range protocols {
		for _, pol := range policies {
			cfg := replayConfig(7)
			cfg.Duration = units.Minutes(20)
			cfg.Protocol = proto
			cfg.Policy = pol
			want, wantEvents := runTraced(t, cfg)
			got, events := runChecked(t, cfg, func(w *World) error { return w.CheckInvariants() })
			if !reflect.DeepEqual(got, want) || !slices.Equal(events, wantEvents) {
				t.Fatalf("%v/%v: checking after every event changed the run", proto, pol)
			}
		}
	}
}

// TestSnapshotFactsHoldInRuns pins, over whole runs of the protocols the
// Table I policies govern under every policy, the three facts a send
// queue read lazily from a Refresh-time snapshot rests on (see
// routing.snapshot). After every event:
//   - a node's delivered set only grows: every id a Delivered event named
//     is still in it, and it holds no other;
//   - a stored replica's relay inputs only move one way: its copy budget
//     never rises and its visited set never changes while it stays
//     stored;
//   - the replicas a buffer held before the event and still holds keep
//     their order in its entries.
func TestSnapshotFactsHoldInRuns(t *testing.T) {
	_, policies := protoPolicyPairs()
	protocols := []ProtocolKind{ProtoEpidemic, ProtoSprayAndWait, ProtoSprayAndWaitVanilla, ProtoDirectDelivery, ProtoFirstContact}
	for _, proto := range protocols {
		for _, pol := range policies {
			for _, seed := range []uint64{7, 11} {
				cfg := replayConfig(seed)
				cfg.Protocol = proto
				cfg.Policy = pol
				var f snapshotFacts
				cfg.Trace = f.observe
				runChecked(t, cfg, f.check)
				if f.deliveries == 0 || f.kept == 0 {
					t.Fatalf("%v/%v seed %d: %d deliveries, %d replicas kept across events: nothing checked",
						proto, pol, seed, f.deliveries, f.kept)
				}
			}
		}
	}
}

// runChecked runs cfg with check after every event, failing the test at
// the first error, and returns the run's Result and trace. cfg.Trace, if
// set, still sees every event.
func runChecked(t *testing.T, cfg Config, check func(*World) error) (Result, []trace.Event) {
	t.Helper()
	var lg trace.Log
	if tap := cfg.Trace; tap != nil {
		cfg.Trace = func(ev trace.Event) { lg.Append(ev); tap(ev) }
	} else {
		cfg.Trace = lg.Append
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.afterEvent = func() {
		if err := check(w); err != nil {
			t.Fatalf("%v/%v at t=%v: %v", cfg.Protocol, cfg.Policy, w.Now(), err)
		}
	}
	return w.Run(), lg.Events()
}

// replicaState is what a stored replica's relay condition reads.
type replicaState struct {
	copies, visited int
}

// snapshotFacts holds, per node, what the trace has delivered to it and
// what the last check saw stored.
type snapshotFacts struct {
	delivered  map[int][]bundle.ID // ids each node received as destination, by the trace
	stored     []map[*bundle.Message]replicaState
	order      []map[*bundle.Message]int // each stored replica's entry index
	deliveries int                       // delivered ids seen
	kept       int                       // replicas seen stored across two checks
}

// observe is a trace tap that notes each first delivery.
func (f *snapshotFacts) observe(ev trace.Event) {
	if ev.Kind == trace.Delivered && !slices.Contains(f.delivered[ev.B], ev.Msg) {
		if f.delivered == nil {
			f.delivered = make(map[int][]bundle.ID)
		}
		f.delivered[ev.B] = append(f.delivered[ev.B], ev.Msg)
		f.deliveries++
	}
}

func (f *snapshotFacts) check(w *World) error {
	if f.stored == nil {
		f.stored = make([]map[*bundle.Message]replicaState, len(w.nodes))
		f.order = make([]map[*bundle.Message]int, len(w.nodes))
	}
	for i, n := range w.nodes {
		ids := f.delivered[n.id]
		if n.delivered.Len() != len(ids) {
			return fmt.Errorf("node %d holds %d delivered ids, the trace delivered %d", n.id, n.delivered.Len(), len(ids))
		}
		for _, id := range ids {
			if !n.delivered.Has(id) {
				return fmt.Errorf("node %d lost delivered id %v", n.id, id)
			}
		}

		stored := make(map[*bundle.Message]replicaState, n.buf.Len())
		order := make(map[*bundle.Message]int, n.buf.Len())
		last := -1
		for j, e := range n.buf.Sorted() {
			m := e.Msg()
			now := replicaState{copies: m.Copies, visited: m.Visited.Len()}
			if was, ok := f.stored[i][m]; ok {
				f.kept++
				if now.copies > was.copies {
					return fmt.Errorf("node %d: stored %v's copy budget rose from %d to %d", n.id, m.ID, was.copies, now.copies)
				}
				if now.visited != was.visited {
					return fmt.Errorf("node %d: stored %v's visited set went from %d to %d nodes", n.id, m.ID, was.visited, now.visited)
				}
				k := f.order[i][m]
				if k < last {
					return fmt.Errorf("node %d: stored %v moved before a replica it followed", n.id, m.ID)
				}
				last = k
			}
			stored[m] = now
			order[m] = j
		}
		f.stored[i], f.order[i] = stored, order
	}
	return nil
}
