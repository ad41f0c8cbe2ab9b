package core

import (
	"slices"
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
//
// rep and seq are the build and snapshot form of the per-rune mapping;
// the hot path reads fold, the same mapping compiled into tables.
type skelIndex struct {
	rep  map[rune]rune      // non-identity component representatives
	seq  map[rune][]rune    // multi-rune skeletons (already rep-mapped)
	refs map[string][]int32 // skeleton(ref) → ascending ids into Detector.refs
	fold foldTable
}

// foldTable is rep/seq compiled for appendLabel: a few array loads per
// rune in place of two map probes. An entry k > 0 names the rune's
// UTF-8 skeleton pool[ends[k-1]:ends[k]]; entry 0, like a rune past
// the table, means the rune maps to itself. ASCII runes read one flat
// row; other runes go through a directory indexed by rune>>8 to a
// 256-entry page, and blocks with no mapped rune share "no page" (0).
type foldTable struct {
	ascii [0x80]uint32
	dir   []uint16 // rune>>8 → 1-based page number, 0 = no page
	pages []uint32 // page p occupies pages[(p-1)<<8 : p<<8]
	ends  []uint32 // ends[0] = 0; entry k ends at ends[k]
	pool  []byte
}

// newFoldTable compiles the rep/seq maps; seq wins where both hold a
// rune, as it does in the maps' own lookup order. Keys outside the rune
// space are dropped: neither decoded labels nor references can hold
// such a rune, so no lookup ever reached them.
func newFoldTable(rep map[rune]rune, seq map[rune][]rune) foldTable {
	keys := make([]rune, 0, len(rep)+len(seq))
	for r := range rep {
		if _, ok := seq[r]; !ok {
			keys = append(keys, r)
		}
	}
	for r := range seq {
		keys = append(keys, r)
	}
	slices.Sort(keys)
	f := foldTable{ends: make([]uint32, 1, len(keys)+1)}
	for _, r := range keys {
		if r < 0 || r > utf8.MaxRune {
			continue
		}
		if s, ok := seq[r]; ok {
			for _, sr := range s {
				f.pool = utf8.AppendRune(f.pool, sr)
			}
		} else {
			f.pool = utf8.AppendRune(f.pool, rep[r])
		}
		f.ends = append(f.ends, uint32(len(f.pool)))
		k := uint32(len(f.ends) - 1)
		if r < 0x80 {
			f.ascii[r] = k
			continue
		}
		hi := int(r >> 8)
		if hi >= len(f.dir) {
			f.dir = append(f.dir, make([]uint16, hi+1-len(f.dir))...)
		}
		if f.dir[hi] == 0 {
			f.pages = append(f.pages, make([]uint32, 256)...)
			f.dir[hi] = uint16(len(f.pages) >> 8)
		}
		f.pages[int(f.dir[hi]-1)<<8|int(r&0xff)] = k
	}
	return f
}

// entry returns r's table entry, 0 when r maps to itself.
func (f *foldTable) entry(r rune) uint32 {
	if uint32(r) < 0x80 {
		return f.ascii[r]
	}
	if hi := uint32(r) >> 8; hi < uint32(len(f.dir)) {
		if p := f.dir[hi]; p != 0 {
			return f.pages[uint32(p-1)<<8|uint32(r)&0xff]
		}
	}
	return 0
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

	x.fold = newFoldTable(x.rep, x.seq)
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
	f := &x.fold
	for _, r := range runes {
		if k := f.entry(r); k != 0 {
			dst = append(dst, f.pool[f.ends[k-1]:f.ends[k]]...)
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
