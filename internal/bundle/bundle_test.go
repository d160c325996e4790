package bundle

import (
	"testing"

	"vdtn/internal/units"
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
	if len(m.Visited) != 1 || m.Visited[0] != 3 {
		t.Fatalf("Visited = %v, want [3]", m.Visited)
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
	c.Visited = append(c.Visited, 2)
	c.Copies = 6
	c.HopCount = 3
	if len(m.Visited) != 1 {
		t.Fatalf("clone mutated original Visited: %v", m.Visited)
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
		t.Fatalf("Visited = %v", got.Visited)
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
	n := 0
	for _, v := range again.Visited {
		if v == 3 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("node 3 appears %d times in %v", n, again.Visited)
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
