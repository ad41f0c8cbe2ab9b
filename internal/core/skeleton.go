package core

import (
	"sort"
	"unicode/utf8"

	"repro/internal/homoglyph"
)

// skelIndex is the detector's one index, the TR39 skeleton map: every
// rune maps to a canonical prototype (a single representative rune, or a
// multi-rune sequence for many-to-one confusables), and every reference's
// whole-label skeleton is precomputed into a hash map — so a candidate
// label resolves to its imitated references in one map probe, regardless
// of length.
//
// The per-rune mapping is derived from the pairwise homoglyph graph via
// union-find: every connected component of the Confusable relation
// collapses to one representative (its smallest rune). That construction
// is what lets one probe serve Algorithm 1 — Confusable(a,b) ⇒ same
// component ⇒ same skeleton rune — so every reference a pairwise,
// same-length comparison could match shares the label's skeleton, and
// the postings backend only has to verify the candidates. On top of
// that, components whose representative carries a multi-rune UC
// prototype ('m' → "rn") expand to the mapped sequence, which is what
// catches the length-changing homographs ("rnicrosoft") the pairwise
// model cannot represent.
type skelIndex struct {
	rep  map[rune]rune      // non-identity component representatives
	seq  map[rune][]rune    // multi-rune skeletons (already rep-mapped)
	refs map[string][]int32 // skeleton(ref) → ascending ids into Detector.refs
}

// buildSkelIndex compiles the skeleton index for the detector's
// homoglyph view and reference list.
func buildSkelIndex(d *Detector) *skelIndex {
	db := d.db
	chars := db.Chars().Runes()

	// Union-find over the pairwise graph, path-halving on find.
	parent := make(map[rune]rune, len(chars))
	var find func(rune) rune
	find = func(r rune) rune {
		p, ok := parent[r]
		if !ok || p == r {
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	union := func(a, b rune) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, r := range chars {
		for _, p := range db.Homoglyphs(r) {
			union(r, p)
		}
	}

	// Representative = smallest rune of the component.
	minOf := make(map[rune]rune, len(chars))
	for _, r := range chars {
		root := find(r)
		if m, ok := minOf[root]; !ok || r < m {
			minOf[root] = r
		}
	}
	x := &skelIndex{
		rep:  make(map[rune]rune),
		seq:  make(map[rune][]rune),
		refs: make(map[string][]int32),
	}
	for _, r := range chars {
		if m := minOf[find(r)]; m != r {
			x.rep[r] = m
		}
	}

	// Sequence expansion is decided per COMPONENT, by its representative:
	// if the rep's full UC prototype is multi-rune, every member of the
	// component skeletonizes to that sequence (each sequence rune itself
	// resolved recursively). Deciding by member instead would let a
	// SimChar-only partner of 'w' keep skeleton 'w' while 'w' itself went
	// to "vv", silently dropping pairwise matches from the candidates.
	var uc ucExpander
	if db.Use()&homoglyph.SourceUC != 0 {
		if c := db.UC(); c != nil {
			uc = c
		}
	}
	var expand func(r rune, depth int, dst []rune) []rune
	expand = func(r rune, depth int, dst []rune) []rune {
		rep := r
		if m, ok := x.rep[r]; ok {
			rep = m
		}
		if uc != nil && depth < 8 {
			if s := uc.SkeletonAppend(nil, rep); len(s) > 1 {
				for _, t := range s {
					dst = expand(t, depth+1, dst)
				}
				return dst
			}
		}
		return append(dst, rep)
	}
	for _, r := range chars {
		if s := expand(r, 0, nil); len(s) > 1 {
			x.seq[r] = s
		}
	}

	var key []byte
	for id := range d.refs {
		key = x.appendLabel(key[:0], d.refRunes(int32(id)))
		x.refs[string(key)] = append(x.refs[string(key)], int32(id))
	}
	return x
}

// ucExpander is the slice of confusables.DB the expansion needs; an
// interface so the build works against any view without importing the
// package for more than the type.
type ucExpander interface {
	SkeletonAppend(dst []rune, r rune) []rune
}

// appendLabel appends the UTF-8 skeleton of the label's runes to dst and
// returns the extended slice. Runes outside the database map to
// themselves, so an all-unknown label's skeleton is itself.
func (x *skelIndex) appendLabel(dst []byte, runes []rune) []byte {
	for _, r := range runes {
		if s, ok := x.seq[r]; ok {
			for _, sr := range s {
				dst = utf8.AppendRune(dst, sr)
			}
			continue
		}
		if m, ok := x.rep[r]; ok {
			dst = utf8.AppendRune(dst, m)
			continue
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// runesEqualString reports rs == s without materializing either side.
func runesEqualString(rs []rune, s string) bool {
	i := 0
	for _, r := range s {
		if i >= len(rs) || rs[i] != r {
			return false
		}
		i++
	}
	return i == len(rs)
}

// sortedRuneKeys returns a skeleton map's keys in their canonical
// (ascending) order, shared by Snapshot and the loader so identical
// detectors flatten identically.
func sortedRuneKeys[V any](m map[rune]V) []rune {
	out := make([]rune, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
