// Package contactplan models explicit contact schedules: lists of time
// windows during which two nodes can communicate. A plan replaces radio
// propagation and mobility entirely — the simulator fires the scheduled
// contacts and everything above (routing, transfers, buffers) runs
// unchanged.
//
// Contact plans serve two audiences. Research users replay *recorded*
// vehicular connectivity traces (taxi GPS datasets, bus fleet logs, the
// ONE simulator's connectivity files) against the routing protocols.
// Tests use tiny hand-written plans to drive protocols through exact
// topologies — something proximity-driven scenarios cannot guarantee.
//
// The text format is line-oriented, one window per line:
//
//	# comment
//	<start-seconds> <end-seconds> <nodeA> <nodeB>
//
// matching the ONE's connectivity trace format in spirit.
package contactplan

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Contact is one window during which nodes A and B are linked: the one
// contact-window type of the simulator. Plans hold it, wireless.Medium
// fires it (StartPlan), recordings pair their transitions into it
// (wireless.Recording.Windows), and scenario files carry it verbatim under
// "contacts", in field order.
type Contact struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	A     int     `json:"a"`
	B     int     `json:"b"`
}

// normalize orders the pair so A < B.
func (c Contact) normalize() Contact {
	if c.A > c.B {
		c.A, c.B = c.B, c.A
	}
	return c
}

// Plan is a validated, time-ordered contact schedule.
// The zero value is an empty plan; build plans with New or Parse.
type Plan struct {
	contacts []Contact
	maxNode  int
	horizon  float64
}

// New validates and normalizes a contact list into a plan. Windows of the
// same pair that overlap or touch are merged. Errors: self-contacts,
// negative ids or times, non-finite (NaN or infinite) times, and windows
// that do not end after they start.
func New(contacts []Contact) (*Plan, error) {
	cs := make([]Contact, 0, len(contacts))
	for i, c := range contacts {
		c = c.normalize()
		switch {
		case c.A == c.B:
			return nil, fmt.Errorf("contactplan: window %d is a self-contact of node %d", i, c.A)
		case c.A < 0:
			return nil, fmt.Errorf("contactplan: window %d has negative node id %d", i, c.A)
		case math.IsNaN(c.Start) || math.IsInf(c.Start, 0) || math.IsNaN(c.End) || math.IsInf(c.End, 0):
			return nil, fmt.Errorf("contactplan: window %d has non-finite time [%v, %v]", i, c.Start, c.End)
		case c.Start < 0:
			return nil, fmt.Errorf("contactplan: window %d starts at negative time %v", i, c.Start)
		case c.End <= c.Start:
			return nil, fmt.Errorf("contactplan: window %d ends at %v, not after start %v", i, c.End, c.Start)
		}
		cs = append(cs, c)
	}
	// Sort by pair then time so overlapping windows are adjacent.
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].A != cs[j].A {
			return cs[i].A < cs[j].A
		}
		if cs[i].B != cs[j].B {
			return cs[i].B < cs[j].B
		}
		return cs[i].Start < cs[j].Start
	})
	merged := make([]Contact, 0, len(cs))
	for _, c := range cs {
		if n := len(merged); n > 0 {
			prev := &merged[n-1]
			if prev.A == c.A && prev.B == c.B && c.Start <= prev.End {
				if c.End > prev.End {
					prev.End = c.End
				}
				continue
			}
		}
		merged = append(merged, c)
	}
	// Final order: by start time (the firing order), stable across pairs.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Start != merged[j].Start {
			return merged[i].Start < merged[j].Start
		}
		if merged[i].A != merged[j].A {
			return merged[i].A < merged[j].A
		}
		return merged[i].B < merged[j].B
	})
	p := &Plan{contacts: merged}
	for _, c := range merged {
		if c.B > p.maxNode {
			p.maxNode = c.B
		}
		if c.End > p.horizon {
			p.horizon = c.End
		}
	}
	return p, nil
}

// Parse reads the text format (one "start end a b" line per window;
// blank lines and '#' comments ignored).
func Parse(text string) (*Plan, error) {
	var contacts []Contact
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("contactplan: line %d: want 'start end a b', got %q", lineNo+1, line)
		}
		start, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("contactplan: line %d: bad start %q", lineNo+1, fields[0])
		}
		end, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("contactplan: line %d: bad end %q", lineNo+1, fields[1])
		}
		a, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("contactplan: line %d: bad node %q", lineNo+1, fields[2])
		}
		b, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("contactplan: line %d: bad node %q", lineNo+1, fields[3])
		}
		contacts = append(contacts, Contact{A: a, B: b, Start: start, End: end})
	}
	return New(contacts)
}

// Windows returns the validated windows in firing order (copy).
func (p *Plan) Windows() []Contact {
	out := make([]Contact, len(p.contacts))
	copy(out, p.contacts)
	return out
}

// Len returns the number of (merged) windows.
func (p *Plan) Len() int { return len(p.contacts) }

// MaxNode returns the highest node id referenced; -1 for an empty plan.
func (p *Plan) MaxNode() int {
	if len(p.contacts) == 0 {
		return -1
	}
	return p.maxNode
}

// Horizon returns the end time of the last window.
func (p *Plan) Horizon() float64 { return p.horizon }

// Summary aggregates a plan for inspection: window and pair counts, the
// highest node id, the horizon, and total / mean window duration.
type Summary struct {
	Windows      int
	Pairs        int
	MaxNode      int
	Horizon      float64
	TotalContact float64 // summed window durations, seconds
	MeanWindow   float64 // mean window duration, seconds
}

// Summarize computes the plan's Summary.
func (p *Plan) Summarize() Summary {
	s := Summary{Windows: len(p.contacts), MaxNode: p.MaxNode(), Horizon: p.horizon}
	pairs := make(map[[2]int]bool)
	for _, c := range p.contacts {
		pairs[[2]int{c.A, c.B}] = true
		s.TotalContact += c.End - c.Start
	}
	s.Pairs = len(pairs)
	if s.Windows > 0 {
		s.MeanWindow = s.TotalContact / float64(s.Windows)
	}
	return s
}

// String renders the summary as a short multi-line report.
func (s Summary) String() string {
	return fmt.Sprintf("windows      %6d\npairs        %6d\nmax node     %6d\nhorizon      %9.1f s\ntotal contact%9.1f s\nmean window  %9.1f s",
		s.Windows, s.Pairs, s.MaxNode, s.Horizon, s.TotalContact, s.MeanWindow)
}

// Format renders the plan in the parseable text format.
func (p *Plan) Format() string {
	var sb strings.Builder
	sb.WriteString("# vdtn contact plan: start end nodeA nodeB\n")
	for _, c := range p.contacts {
		fmt.Fprintf(&sb, "%g %g %d %d\n", c.Start, c.End, c.A, c.B)
	}
	return sb.String()
}
