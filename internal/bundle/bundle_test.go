package bundle

import (
	"slices"
	"testing"

	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

func TestNewMessage(t *testing.T) {
	m := New(7, 3, 9, units.MB(1), 100, units.Minutes(90))
	if m.ID != 7 || m.From != 3 || m.To != 9 {
		t.Fatalf("identity wrong: %+v", m)
	}
	if m.ReceivedAt != 100 {
		t.Fatalf("ReceivedAt = %v, want creation time", m.ReceivedAt)
	}
	if m.Copies != 1 {
		t.Fatalf("Copies = %d, want 1", m.Copies)
	}
	if m.Visited.Len() != 1 || !m.HasVisited(3) {
		t.Fatalf("Visited = %+v, want {3}", m.Visited)
	}
	if m.HopCount != 0 {
		t.Fatalf("HopCount = %d, want 0", m.HopCount)
	}
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero size": func() { New(1, 0, 1, 0, 0, 60) },
		"zero ttl":  func() { New(1, 0, 1, units.KB(1), 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTTLAccounting(t *testing.T) {
	m := New(1, 0, 1, units.KB(500), 1000, units.Minutes(60))
	if got := m.ExpiresAt(); got != 1000+3600 {
		t.Fatalf("ExpiresAt = %v", got)
	}
	if got := m.RemainingTTL(2000); got != 2600 {
		t.Fatalf("RemainingTTL = %v", got)
	}
	if m.Expired(4599.9) {
		t.Fatal("expired early")
	}
	if !m.Expired(4600) {
		t.Fatal("not expired at deadline")
	}
	if got := m.Age(1500); got != 500 {
		t.Fatalf("Age = %v", got)
	}
	if got := m.RemainingTTL(5000); got >= 0 {
		t.Fatalf("RemainingTTL after expiry = %v, want negative", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(1, 0, 5, units.MB(1), 0, 3600)
	m.Copies = 12
	c := m.Clone()
	c.Visited.Add(2)
	c.Copies = 6
	c.HopCount = 3
	if m.Visited.Len() != 1 || m.HasVisited(2) {
		t.Fatalf("clone mutated original Visited: %+v", m.Visited)
	}
	if m.Copies != 12 || m.HopCount != 0 {
		t.Fatalf("clone mutated original scalar state: %+v", m)
	}
	if c.ID != m.ID || c.Size != m.Size {
		t.Fatal("clone lost identity")
	}
}

func TestForwardTo(t *testing.T) {
	m := New(1, 0, 5, units.MB(1), 0, 3600)
	m.Copies = 12
	got := m.ForwardTo(3, 250)
	if got.HopCount != 1 {
		t.Fatalf("HopCount = %d", got.HopCount)
	}
	if got.ReceivedAt != 250 {
		t.Fatalf("ReceivedAt = %v", got.ReceivedAt)
	}
	if !got.HasVisited(3) || !got.HasVisited(0) {
		t.Fatalf("Visited = %+v", got.Visited)
	}
	if got.Copies != 12 {
		t.Fatalf("ForwardTo changed copy budget: %d", got.Copies)
	}
	// Original untouched.
	if m.HopCount != 0 || m.ReceivedAt != 0 || m.HasVisited(3) {
		t.Fatalf("ForwardTo mutated original: %+v", m)
	}
	// Re-visiting doesn't duplicate the entry.
	again := got.ForwardTo(3, 300)
	if n := again.Visited.Len(); n != 2 {
		t.Fatalf("after revisiting node 3 the set holds %d nodes: %+v", n, again.Visited)
	}
}

// TestNodeSetMatchesSliceSemantics replays hop sequences through both the
// NodeSet and the visited slice it replaced (append unless present),
// across the word boundary at 63/64, far ids and negative ones. At every
// hop the replica is forwarded to two nodes, as a carrier replicates to
// two peers: each copy must agree with its own slice on membership of
// every probe and on the size, and the original must stay untouched.
func TestNodeSetMatchesSliceSemantics(t *testing.T) {
	ids := []int{0, 63, 64, 500, -1, 1, 65, 1000, -7}
	probes := []int{-8, -7, -2, -1, 0, 1, 2, 62, 63, 64, 65, 66, 499, 500, 501, 1000}
	agree := func(trial int, m *Message, visited []int) {
		t.Helper()
		for _, p := range probes {
			if got, want := m.HasVisited(p), slices.Contains(visited, p); got != want {
				t.Fatalf("trial %d: path %v: HasVisited(%d) = %v, slice says %v", trial, visited, p, got, want)
			}
		}
		if m.Visited.Len() != len(visited) {
			t.Fatalf("trial %d: path %v: Len %d", trial, visited, m.Visited.Len())
		}
	}
	visit := func(visited []int, at int) []int {
		if slices.Contains(visited, at) {
			return visited
		}
		return append(slices.Clip(visited), at)
	}
	rng := xrand.New(7)
	for trial := 0; trial < 300; trial++ {
		src := ids[rng.IntN(len(ids))]
		m := New(1, src, 9999, units.KB(1), 0, 60)
		visited := []int{src}
		for hop := 0; hop < 10; hop++ {
			a, b := ids[rng.IntN(len(ids))], ids[rng.IntN(len(ids))]
			ma, mb := m.ForwardTo(a, float64(hop)), m.ForwardTo(b, float64(hop))
			agree(trial, m, visited)
			va, vb := visit(visited, a), visit(visited, b)
			agree(trial, ma, va)
			agree(trial, mb, vb)
			m, visited = ma, va
			if rng.IntN(2) == 0 {
				m, visited = mb, vb
			}
		}
	}
}

// TestForwardToAllocatesOnlyTheReplica: with node ids below 64 — every
// scenario of the paper — forwarding allocates the new replica and
// nothing else.
func TestForwardToAllocatesOnlyTheReplica(t *testing.T) {
	m := New(1, 3, 40, units.KB(1), 0, 60)
	m = m.ForwardTo(17, 1)
	var sink *Message
	if allocs := testing.AllocsPerRun(100, func() { sink = m.ForwardTo(44, 2) }); allocs != 1 {
		t.Fatalf("ForwardTo allocates %v objects, want 1", allocs)
	}
	if !sink.HasVisited(3) || !sink.HasVisited(17) || !sink.HasVisited(44) {
		t.Fatalf("forwarded replica's set %+v", sink.Visited)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(42).String(); got != "M42" {
		t.Fatalf("ID.String() = %q", got)
	}
}

func TestMessageString(t *testing.T) {
	m := New(3, 1, 2, units.MB(1), 0, units.Minutes(90))
	want := "M3[1->2 1.00 MB ttl=1h30m]"
	if got := m.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestFactorySequence(t *testing.T) {
	f := NewFactory()
	if f.Minted() != 0 {
		t.Fatalf("fresh factory minted %d", f.Minted())
	}
	a, b, c := f.NextID(), f.NextID(), f.NextID()
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("ids = %v, %v, %v", a, b, c)
	}
	if f.Minted() != 3 {
		t.Fatalf("Minted = %d", f.Minted())
	}
}

func TestIDSet(t *testing.T) {
	var s IDSet
	ids := []ID{0, 63, 64, 1000}
	for _, id := range ids {
		if s.Has(id) || !s.Add(id) || s.Add(id) || !s.Has(id) {
			t.Fatalf("adding %v to %v went wrong", id, s.words)
		}
	}
	for _, id := range []ID{1, 62, 65, 999, 1001, 1 << 20} {
		if s.Has(id) {
			t.Fatalf("%v reported present", id)
		}
	}
	s.Remove(64)
	s.Remove(65) // absent: no-op
	if s.Has(64) || !s.Has(63) || s.Len() != 3 {
		t.Fatalf("after Remove(64): Has(64)=%v Has(63)=%v Len=%d", s.Has(64), s.Has(63), s.Len())
	}
	if s.Has(-1) || s.Has(-64) {
		t.Fatal("negative id reported present")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adding a negative id did not panic")
		}
	}()
	s.Add(-1)
}

func TestIDSetUnion(t *testing.T) {
	var a, b IDSet
	for _, id := range []ID{1, 64, 200} {
		a.Add(id)
	}
	for _, id := range []ID{1, 2, 500} {
		b.Add(id)
	}
	a.Union(&b)
	for _, id := range []ID{1, 2, 64, 200, 500} {
		if !a.Has(id) {
			t.Fatalf("union lost %v", id)
		}
	}
	if a.Len() != 5 || b.Len() != 3 || b.Has(64) {
		t.Fatalf("Len = %d, %d; union changed its argument", a.Len(), b.Len())
	}
	var empty IDSet
	a.Union(&empty)
	empty.Union(&a)
	if a.Len() != 5 || empty.Len() != 5 || !empty.Has(500) {
		t.Fatalf("union with an empty set: Len = %d, %d", a.Len(), empty.Len())
	}
}

// TestIDSetAppendWords: under random adds, removes and unions, every
// member lies below 64·NumWords(), and the first n words AppendWords
// copies, for any n, answer Has as the set does below 64·n, and false
// from there on.
func TestIDSetAppendWords(t *testing.T) {
	rng := xrand.New(9)
	var s IDSet
	var members []ID
	for step := 0; step < 3000; step++ {
		switch op := rng.IntN(10); {
		case op < 5:
			id := ID(rng.IntN(2000))
			if s.Add(id) {
				members = append(members, id)
			}
		case op < 9 && len(members) > 0:
			i := rng.IntN(len(members))
			s.Remove(members[i])
			members = slices.Delete(members, i, i+1)
		default:
			var t2 IDSet
			for k := rng.IntN(4); k > 0; k-- {
				id := ID(1500 + rng.IntN(500))
				if t2.Add(id) && !s.Has(id) {
					members = append(members, id)
				}
			}
			s.Union(&t2)
		}
		if s.Len() != len(members) {
			t.Fatalf("step %d: Len %d, %d members", step, s.Len(), len(members))
		}
		for _, id := range members {
			if int(id)/64 >= s.NumWords() {
				t.Fatalf("step %d: member %v past %d words", step, id, s.NumWords())
			}
		}
		n := rng.IntN(40)
		w := IDWords(s.AppendWords([]uint64{7}, n)[1:])
		if len(w) != n {
			t.Fatalf("step %d: AppendWords copied %d words, want %d", step, len(w), n)
		}
		for id := ID(-64); id < 40*64+64; id++ {
			inside := id >= 0 && int(id) < 64*n
			if w.Has(id) != (inside && s.Has(id)) {
				t.Fatalf("step %d: %d words: Has(%v) = %v", step, n, id, w.Has(id))
			}
		}
	}
}
