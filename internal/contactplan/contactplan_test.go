package contactplan

import (
	"math"
	"strings"
	"testing"
)

func TestNewValidates(t *testing.T) {
	bad := map[string][]Contact{
		"self contact":  {{A: 1, B: 1, Start: 0, End: 10}},
		"negative id":   {{A: -1, B: 2, Start: 0, End: 10}},
		"negative time": {{A: 0, B: 1, Start: -5, End: 10}},
		"infinite end":  {{A: 0, B: 1, Start: 0, End: math.Inf(1)}},
		"zero length":   {{A: 0, B: 1, Start: 10, End: 10}},
		"inverted":      {{A: 0, B: 1, Start: 10, End: 5}},
	}
	for name, cs := range bad {
		if _, err := New(cs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNewNormalizesAndSorts(t *testing.T) {
	p, err := New([]Contact{
		{A: 3, B: 1, Start: 50, End: 60}, // reversed pair
		{A: 0, B: 1, Start: 10, End: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := p.Windows()
	if ws[0].Start != 10 || ws[1].Start != 50 {
		t.Fatalf("not sorted by start: %v", ws)
	}
	if ws[1].A != 1 || ws[1].B != 3 {
		t.Fatalf("pair not normalized: %v", ws[1])
	}
}

func TestNewMergesOverlaps(t *testing.T) {
	p, err := New([]Contact{
		{A: 0, B: 1, Start: 10, End: 20},
		{A: 0, B: 1, Start: 15, End: 30}, // overlaps
		{A: 0, B: 1, Start: 30, End: 40}, // touches
		{A: 0, B: 1, Start: 50, End: 60}, // separate
		{A: 0, B: 2, Start: 12, End: 18}, // other pair untouched
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3 after merging: %v", p.Len(), p.Windows())
	}
	ws := p.Windows()
	if ws[0].Start != 10 || ws[0].End != 40 {
		t.Fatalf("merged window = %v, want [10,40]", ws[0])
	}
	if p.Horizon() != 60 {
		t.Fatalf("Horizon = %v", p.Horizon())
	}
	if p.MaxNode() != 2 {
		t.Fatalf("MaxNode = %v", p.MaxNode())
	}
}

func TestEmptyPlan(t *testing.T) {
	p, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || p.MaxNode() != -1 || p.Horizon() != 0 {
		t.Fatalf("empty plan: %d, %d, %v", p.Len(), p.MaxNode(), p.Horizon())
	}
}

func TestParse(t *testing.T) {
	p, err := Parse(`
# bus line morning schedule
10 20 0 1
30.5 40 1 2
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	if p.Windows()[1].Start != 30.5 {
		t.Fatalf("fractional start lost: %v", p.Windows()[1])
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"wrong arity":  "10 20 0",
		"bad start":    "x 20 0 1",
		"bad end":      "10 y 0 1",
		"bad node a":   "10 20 z 1",
		"bad node b":   "10 20 0 z",
		"self":         "10 20 3 3",
		"NaN end":      "0 NaN 1 2",
		"NaN start":    "NaN 5 1 2",
		"infinite end": "0 +Inf 1 2",
	}
	for name, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: Parse accepted %q", name, text)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	p, err := New([]Contact{
		{A: 0, B: 1, Start: 10, End: 20},
		{A: 1, B: 2, Start: 30.25, End: 45},
	})
	if err != nil {
		t.Fatal(err)
	}
	text := p.Format()
	if !strings.Contains(text, "30.25 45 1 2") {
		t.Fatalf("Format output:\n%s", text)
	}
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if p2.Len() != p.Len() {
		t.Fatal("round trip changed window count")
	}
	for i := range p.Windows() {
		if p.Windows()[i] != p2.Windows()[i] {
			t.Fatalf("round trip changed window %d", i)
		}
	}
}

func TestWindowsIsCopy(t *testing.T) {
	p, _ := New([]Contact{{A: 0, B: 1, Start: 1, End: 2}})
	ws := p.Windows()
	ws[0].Start = 99
	if p.Windows()[0].Start != 1 {
		t.Fatal("Windows aliases internal storage")
	}
}

func TestSummarize(t *testing.T) {
	p, err := New([]Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 0, B: 1, Start: 20, End: 30},
		{A: 2, B: 5, Start: 5, End: 45},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.Summarize()
	want := Summary{Windows: 3, Pairs: 2, MaxNode: 5, Horizon: 45, TotalContact: 60, MeanWindow: 20}
	if s != want {
		t.Fatalf("Summarize() = %+v, want %+v", s, want)
	}
	if (&Plan{}).Summarize() != (Summary{MaxNode: -1}) {
		t.Fatal("empty plan summary wrong")
	}
}
