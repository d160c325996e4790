// Package reports derives analyses from a simulation trace — the
// counterpart of the ONE simulator's report modules. A Tracker consumes a
// run's event stream (internal/trace) one event at a time, live through
// sim.Config.Trace or read back with trace.ReadTSV, and its Analysis
// reconstructs contact statistics (durations, inter-contact times),
// transfer outcomes, and per-message fates including delivery paths.
package reports

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"vdtn/internal/bundle"
	"vdtn/internal/stats"
	"vdtn/internal/trace"
	"vdtn/internal/units"
)

// Fate classifies what ultimately happened to a message.
type Fate int

// Message fates.
const (
	// FateDelivered: the message reached its destination.
	FateDelivered Fate = iota
	// FatePending: undelivered, but replicas may still exist at the
	// horizon.
	FatePending
	// FateDead: undelivered and every traced replica was dropped or
	// expired.
	FateDead
)

// String names the fate.
func (f Fate) String() string {
	switch f {
	case FateDelivered:
		return "delivered"
	case FatePending:
		return "pending"
	case FateDead:
		return "dead"
	default:
		return fmt.Sprintf("Fate(%d)", int(f))
	}
}

// Analysis is the full report of one run.
type Analysis struct {
	// Horizon is the end-of-run time used to close open contacts.
	Horizon float64

	// Counts holds the number of events of each kind, indexed by
	// trace.Kind: Counts[trace.ContactUp] contacts began,
	// Counts[trace.TransferAbort] transfers were cut, and so on.
	Counts [trace.NumKinds]int
	// ContactDuration summarizes contact lengths in seconds (contacts
	// still open at the horizon are closed there).
	ContactDuration stats.Summary
	// InterContact summarizes, per node pair, the gaps between one
	// contact ending and the next beginning, in seconds.
	InterContact stats.Summary

	// Created / Delivered count distinct messages; Fates maps each fate
	// to the number of messages.
	Created   int
	Delivered int
	Fates     map[Fate]int

	// PathHops summarizes reconstructed delivery-path lengths in hops.
	PathHops stats.Summary

	durations  []float64
	gaps       []float64
	delays     []float64
	pathsByMsg map[bundle.ID][]int
	deliveries []bundle.ID // first-delivery order
	busiest    [][2]int    // pairs that met, busiest first
}

// Delays returns the creation-to-delivery time of every delivered message,
// in seconds, in message-id order. The slice is freshly allocated.
func (a *Analysis) Delays() []float64 {
	out := make([]float64, len(a.delays))
	copy(out, a.delays)
	return out
}

// MedianContactDuration returns the exact median contact length in
// seconds, or 0 if no contacts closed.
func (a *Analysis) MedianContactDuration() float64 {
	if len(a.durations) == 0 {
		return 0
	}
	return stats.Percentile(a.durations, 50)
}

// MedianInterContact returns the exact median inter-contact gap in
// seconds, or 0 if no pair met twice.
func (a *Analysis) MedianInterContact() float64 {
	if len(a.gaps) == 0 {
		return 0
	}
	return stats.Percentile(a.gaps, 50)
}

// Tracker is a streaming trace consumer: it folds each event into one
// record per message and one per node pair, so a run is analyzed without
// holding its events. Install Emit as the simulator's trace callback, or
// pass it to trace.ReadTSV. Events must arrive in emission order.
type Tracker struct {
	counts    [trace.NumKinds]int
	msgs      map[bundle.ID]*message
	pairs     map[[2]int]*contact
	durations []float64   // closed contact lengths, in contact-down order
	gaps      []float64   // inter-contact gaps, in contact-up order
	delivered []bundle.ID // first-delivery order
}

// message is what a Tracker knows of one message.
type message struct {
	created   bool
	src       int
	createdAt float64
	delivered bool
	via       edge   // the first delivery
	live      int    // replicas created or accepted minus dropped or expired
	edges     []edge // completed transfers, in emission order
}

// contact is what a Tracker knows of one node pair.
type contact struct {
	up       bool
	upSince  float64
	wentDown bool
	lastDown float64
	count    int // contact-up events
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{msgs: make(map[bundle.ID]*message), pairs: make(map[[2]int]*contact)}
}

// Emit implements trace.Func.
func (t *Tracker) Emit(ev trace.Event) {
	t.counts[ev.Kind]++
	switch ev.Kind {
	case trace.ContactUp:
		c := entry(t.pairs, [2]int{ev.A, ev.B})
		if c.wentDown {
			t.gaps = append(t.gaps, ev.Time-c.lastDown)
		}
		c.up, c.upSince = true, ev.Time
		c.count++
	case trace.ContactDown:
		c := entry(t.pairs, [2]int{ev.A, ev.B})
		if c.up {
			t.durations = append(t.durations, ev.Time-c.upSince)
			c.up = false
		}
		c.wentDown, c.lastDown = true, ev.Time
	case trace.TransferComplete:
		m := entry(t.msgs, ev.Msg)
		m.edges = append(m.edges, edge{ev.A, ev.B, ev.Time})
	case trace.Created:
		m := entry(t.msgs, ev.Msg)
		m.created, m.src, m.createdAt = true, ev.A, ev.Time
		m.live++
	case trace.Delivered:
		if m := entry(t.msgs, ev.Msg); !m.delivered {
			m.delivered, m.via = true, edge{ev.A, ev.B, ev.Time}
			t.delivered = append(t.delivered, ev.Msg)
		}
	case trace.RelayAccepted:
		entry(t.msgs, ev.Msg).live++
	case trace.Dropped, trace.Expired:
		entry(t.msgs, ev.Msg).live--
	}
}

// entry returns m[k], adding a zero record under k first if there is none.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// Analysis reports on the events emitted so far. horizon is the simulated
// end time, where contacts still up are closed; they are closed in pair
// order, so equal events always give bit-equal summaries. The tracker is
// left unchanged and may keep receiving events.
func (t *Tracker) Analysis(horizon float64) *Analysis {
	a := &Analysis{
		Horizon:    horizon,
		Counts:     t.counts,
		Delivered:  len(t.delivered),
		Fates:      make(map[Fate]int),
		durations:  slices.Clone(t.durations),
		gaps:       slices.Clone(t.gaps),
		pathsByMsg: make(map[bundle.ID][]int),
		deliveries: slices.Clone(t.delivered),
	}

	pairs := slices.SortedFunc(maps.Keys(t.pairs), func(p, q [2]int) int {
		return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1]))
	})
	for _, p := range pairs {
		c := t.pairs[p]
		if c.up {
			a.durations = append(a.durations, horizon-c.upSince)
		}
		if c.count > 0 {
			a.busiest = append(a.busiest, p)
		}
	}
	slices.SortStableFunc(a.busiest, func(p, q [2]int) int {
		return cmp.Compare(t.pairs[q].count, t.pairs[p].count)
	})
	if len(a.durations) > 0 {
		a.ContactDuration = stats.Summarize(a.durations)
	}
	if len(a.gaps) > 0 {
		a.InterContact = stats.Summarize(a.gaps)
	}

	// Fates, delays and delivery paths, in deterministic id order.
	var hops []float64
	for _, id := range slices.Sorted(maps.Keys(t.msgs)) {
		m := t.msgs[id]
		if !m.created {
			continue
		}
		a.Created++
		switch {
		case m.delivered:
			a.Fates[FateDelivered]++
			a.delays = append(a.delays, m.via.time-m.createdAt)
			path := reconstructPath(m.src, m.via, m.edges)
			a.pathsByMsg[id] = path
			hops = append(hops, float64(len(path)-1))
		case m.live > 0:
			a.Fates[FatePending]++
		default:
			a.Fates[FateDead]++
		}
	}
	if len(hops) > 0 {
		a.PathHops = stats.Summarize(hops)
	}
	return a
}

// edge is one completed transfer of a message: from -> to at time.
type edge struct {
	from, to int
	time     float64
}

// reconstructPath walks transfer edges backwards from the delivering hop
// to the source. When several replicas could have fed a hop, the latest
// transfer before the hop is taken (the replica actually present). The
// returned path lists node ids source-first, destination-last.
func reconstructPath(src int, final edge, edges []edge) []int {
	path := []int{final.to, final.from}
	at, t := final.from, final.time
	for at != src {
		var best *edge
		for i := range edges {
			e := edges[i]
			if e.to == at && e.time < t && (best == nil || e.time > best.time) {
				best = &edges[i]
			}
		}
		if best == nil {
			break // trace truncated; return the partial path
		}
		at, t = best.from, best.time
		path = append(path, at)
	}
	// Reverse into source-first order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// DeliveryPath returns the reconstructed node path of a delivered message
// (source first, destination last), or nil if the message was not
// delivered.
func (a *Analysis) DeliveryPath(id bundle.ID) []int {
	return a.pathsByMsg[id]
}

// DeliveredIDs returns the ids of the delivered messages in the order they
// were first delivered. The slice is freshly allocated.
func (a *Analysis) DeliveredIDs() []bundle.ID {
	return slices.Clone(a.deliveries)
}

// TopPairs returns the k node pairs with the most contacts, busiest first
// (ties in pair order). The slice is freshly allocated.
func (a *Analysis) TopPairs(k int) [][2]int {
	return slices.Clone(a.busiest[:min(k, len(a.busiest))])
}

// String renders the analysis as a readable block.
func (a *Analysis) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "contacts        %d (mean %s, median %s, max %s)\n",
		a.Counts[trace.ContactUp],
		units.FormatDuration(a.ContactDuration.Mean),
		units.FormatDuration(a.MedianContactDuration()),
		units.FormatDuration(a.ContactDuration.Max))
	if len(a.gaps) > 0 {
		fmt.Fprintf(&sb, "inter-contact   mean %s, median %s over %d gaps\n",
			units.FormatDuration(a.InterContact.Mean),
			units.FormatDuration(a.MedianInterContact()), len(a.gaps))
	}
	fmt.Fprintf(&sb, "transfers       %d started, %d completed, %d aborted\n",
		a.Counts[trace.TransferStart], a.Counts[trace.TransferComplete], a.Counts[trace.TransferAbort])
	fmt.Fprintf(&sb, "messages        %d created, %d delivered", a.Created, a.Delivered)
	fmt.Fprintf(&sb, " (%d pending, %d dead)\n", a.Fates[FatePending], a.Fates[FateDead])
	if a.Delivered > 0 {
		fmt.Fprintf(&sb, "delivery paths  %.2f hops mean, %.0f max\n",
			a.PathHops.Mean, a.PathHops.Max)
	}
	return sb.String()
}
