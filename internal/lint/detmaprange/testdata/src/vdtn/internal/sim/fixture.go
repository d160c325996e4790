// Fixture for the detmaprange analyzer. The import path places it in a
// determinism-critical package, so every unordered map range must either
// prove the collect-then-sort shape or carry a justified suppression.
package fixture

import (
	"maps"
	"slices"
	"sort"
)

// Plain unordered iteration with an order-sensitive side effect: flagged.
func emitInOrder(m map[int]string, sink func(string)) {
	for _, v := range m { // want `iterates over map m in nondeterministic order`
		sink(v)
	}
}

// Ranging the maps.Keys iterator is just as unordered as the map.
func iterKeys(m map[int]string) {
	for k := range maps.Keys(m) { // want `ranges over maps\.Keys\(m\) in nondeterministic order`
		_ = k
	}
}

// The remedy the diagnostics suggest: ranging the sorted keys is ordered.
func iterSortedKeys(m map[int]string, sink func(string)) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		sink(m[k])
	}
}

// Collecting into a local slice without sorting it afterwards leaks the
// runtime's randomized order into the result: flagged.
func collectNoSort(m map[int]string) []string {
	var out []string
	for _, v := range m { // want `iterates over map m in nondeterministic order`
		out = append(out, v)
	}
	return out
}

// The canonical collect-then-sort shape is provably order-insensitive.
func collectThenSort(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Conditional collection plus a counter and a constant flag still fit the
// proof: every step commutes.
func collectFiltered(m map[int]string) ([]int, int, bool) {
	keys := make([]int, 0, len(m))
	n := 0
	seen := false
	for k, v := range m {
		if v == "" {
			continue
		}
		keys = append(keys, k)
		n++
		seen = true
	}
	sort.Ints(keys)
	return keys, n, seen
}

// Sorting through a local helper: the caller ranges a slice, not a map,
// and the helper's own loop proves the collect-then-sort shape.
func viaHelper(m map[int]string, sink func(string)) {
	for _, k := range sortedKeys(m) {
		sink(m[k])
	}
}

func sortedKeys(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// String concatenation is order-sensitive, but here the author justified
// it: suppressed, no diagnostic.
func justified(m map[int]string) string {
	s := ""
	//vdtnlint:unordered-ok debug digest; byte order never compared across runs
	for _, v := range m {
		s += v
	}
	return s
}

// Same-line justification works too.
func justifiedInline(m map[int]string, sink func(string)) {
	for _, v := range m { //vdtnlint:unordered-ok fan-out to an order-insensitive sink
		sink(v)
	}
}

// A bare directive with no justification does not suppress anything.
func unjustified(m map[int]string, sink func(string)) {
	//vdtnlint:unordered-ok
	for _, v := range m { // want `iterates over map m in nondeterministic order.*suppression rejected`
		sink(v)
	}
}

// A directive pointing at a loop the analyzer already proves safe is
// itself flagged, so stale excuses cannot accumulate.
func unusedDirective(m map[int]string) []int {
	var keys []int
	//vdtnlint:unordered-ok stale excuse left behind // want `unused //vdtnlint:unordered-ok directive`
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Ranging a slice or channel is ordered; never flagged.
func orderedRanges(xs []int, ch chan int) {
	for _, x := range xs {
		_ = x
	}
	for x := range ch {
		_ = x
	}
}
