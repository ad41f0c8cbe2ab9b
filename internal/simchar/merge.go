package simchar

import "slices"

// Merge unites SimChar databases built from different fonts — the
// paper's Section 7.1 extension ("it would be straightforward to
// extend our evaluation to other font families"). A pair confusable
// under any font is confusable in the union; when several fonts list
// the same pair, the smallest Δ is kept, since an attacker gets to
// pick the victim's rendering.
func Merge(dbs ...*DB) *DB {
	best := make(map[[2]rune]int)
	for _, db := range dbs {
		if db == nil {
			continue
		}
		for _, p := range db.pairs {
			key := [2]rune{p.A, p.B}
			if d, ok := best[key]; !ok || p.Delta < d {
				best[key] = p.Delta
			}
		}
	}
	pairs := make([]Pair, 0, len(best))
	for key, d := range best {
		pairs = append(pairs, Pair{A: key[0], B: key[1], Delta: d})
	}
	slices.SortFunc(pairs, comparePairs)
	return fromPairs(pairs)
}

// Diff reports the pairs present in a but absent from b — what one
// font finds that another misses.
func Diff(a, b *DB) []Pair {
	var out []Pair
	for _, p := range a.pairs {
		if !b.Confusable(p.A, p.B) {
			out = append(out, p)
		}
	}
	return out
}
