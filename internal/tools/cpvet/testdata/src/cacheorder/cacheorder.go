// Fixture pinning the deterministic-scope rule for cache code: a lookup that
// feeds replayed scans must not range over its cache map directly —
// iteration goes through a sorted key slice built by a sorted-keys helper
// (sortedKeys below), so the sibling a rebuild seeds from is the same on
// every run. The sorted-keys collector itself
// stays untagged: its own map range is the one sanctioned place order is
// destroyed, because sorting restores it before any caller observes a key.
package cacheorder

import "sort"

type key struct{ k, lo, hi int }

type plan struct{ emitStart int }

// lookupUnsorted picks a seed plan by ranging the cache map directly: two
// runs can pick different siblings, so replays diverge. Flagged.
//
//cpvet:deterministic
func lookupUnsorted(cache map[key]*plan, k int) *plan {
	for ck, p := range cache { // want `range over map`
		if ck.k == k {
			return p
		}
	}
	return nil
}

// lookupSorted is the sanctioned shape: collect keys through the untagged
// sorter, then range the slice. Clean.
//
//cpvet:deterministic
func lookupSorted(cache map[key]*plan, k int) *plan {
	for _, ck := range sortedKeys(cache) {
		if ck.k == k {
			return cache[ck]
		}
	}
	return nil
}

// sortedKeys is deliberately untagged: its internal map range is out of
// deterministic scope because the sort below makes the output order
// independent of it.
func sortedKeys(cache map[key]*plan) []key {
	keys := make([]key, 0, len(cache))
	for ck := range cache {
		keys = append(keys, ck)
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		if x.k != y.k {
			return x.k < y.k
		}
		if x.lo != y.lo {
			return x.lo < y.lo
		}
		return x.hi < y.hi
	})
	return keys
}

var _ = lookupUnsorted
var _ = lookupSorted
