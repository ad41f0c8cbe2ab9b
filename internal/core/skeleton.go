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
//
// The fold table also carries the dead-rune gate. A rune is live when
// every rune of its skeleton occurs in some reference key, and dead
// otherwise. A label holding a dead rune has a skeleton no reference
// shares, so the label misses without a probe: appendLive stops at the
// first dead rune, and keep hands the same verdict to the Punycode
// decoder, which stops at the first dead code point it inserts. Every
// backend's candidates come from this one probe, so the gate holds for
// all of them.
type skelIndex struct {
	rep  map[rune]rune      // non-identity component representatives
	seq  map[rune][]rune    // multi-rune skeletons (already rep-mapped)
	refs map[string][]int32 // skeleton(ref) → ascending ids into Detector.refs
	fold foldTable
	keep func(rune) bool // live, as a func value built once
}

// foldTable is rep/seq compiled for appendLabel: a few array loads per
// rune in place of two map probes. An entry k > 0 names the rune's
// UTF-8 skeleton pool[ends[k-1]:ends[k]]; entry 0, like a rune past
// the table, means the rune maps to itself. ASCII runes read one flat
// row; other runes go through a directory indexed by rune>>8 to a
// 256-entry page, and blocks with no mapped rune share "no page" (0).
//
// Once markDead has run, an entry's dead bit marks a dead rune, and a
// rune past the table reads outside, which is dead too: markDead gives
// every block holding a live identity rune a page.
type foldTable struct {
	ascii   [0x80]uint32
	dir     []uint16 // rune>>8 → 1-based page number, 0 = no page
	pages   []uint32 // page p occupies pages[(p-1)<<8 : p<<8]
	ends    []uint32 // ends[0] = 0; entry k ends at ends[k]
	pool    []byte
	outside uint32 // the entry of a rune past the table
}

// deadBit flags a dead rune in a fold table entry; the rest of the
// entry is its skeleton's index, 0 for a rune that maps to itself.
const deadBit = 1 << 31

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
		f.page(int(r >> 8))[r&0xff] = k
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
	return f.outside
}

// page returns the 256 entries of block hi, adding a page of identity
// entries if the block has none.
func (f *foldTable) page(hi int) []uint32 {
	if hi >= len(f.dir) {
		f.dir = append(f.dir, make([]uint16, hi+1-len(f.dir))...)
	}
	if f.dir[hi] == 0 {
		f.pages = append(f.pages, make([]uint32, 256)...)
		f.dir[hi] = uint16(len(f.pages) >> 8)
	}
	p := int(f.dir[hi]-1) << 8
	return f.pages[p : p+256]
}

// markDead sets the dead bits from keyRunes, the runes of the reference
// keys. A rune mapped to skeleton k is live when every rune of k is a
// key rune; a rune that maps to itself is live when it is a key rune.
// Key runes outside ASCII get a page, so every rune past the table is
// dead.
func (f *foldTable) markDead(keyRunes runeSet) {
	dead := make([]bool, len(f.ends))
	for k := 1; k < len(f.ends); k++ {
		for _, r := range string(f.pool[f.ends[k-1]:f.ends[k]]) {
			dead[k] = dead[k] || !keyRunes.has(r)
		}
	}
	for r, e := range f.ascii {
		if (e == 0 && !keyRunes.has(rune(r))) || dead[e] {
			f.ascii[r] = e | deadBit
		}
	}
	for w := 2; w < len(keyRunes); w++ { // words 0 and 1 are ASCII
		if keyRunes[w] != 0 {
			f.page(w >> 2) // 4 words per 256-rune block
		}
	}
	for hi, p := range f.dir {
		if p == 0 {
			continue
		}
		block := rune(hi) << 8
		pg := f.pages[int(p-1)<<8 : int(p)<<8]
		for lo, e := range pg {
			if (e == 0 && !keyRunes.has(block|rune(lo))) || dead[e] {
				pg[lo] = e | deadBit
			}
		}
	}
	f.outside = deadBit
}

// runeSet is a bitset of runes, grown to hold its largest member; words
// 0 and 1 hold ASCII.
type runeSet []uint64

// addString adds the runes of str.
func (s *runeSet) addString(str string) {
	set := *s
	if len(set) < 2 {
		set = append(set, make([]uint64, 2-len(set))...)
	}
	for i := 0; i < len(str); {
		if c := str[i]; c < 0x80 { // most key runes: no decode, no growth
			set[c>>6] |= 1 << (c & 63)
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(str[i:])
		if w := int(r >> 6); w >= len(set) {
			set = append(set, make([]uint64, w+1-len(set))...)
		}
		set[r>>6] |= 1 << (r & 63)
		i += n
	}
	*s = set
}

// has reports whether r is in the set.
func (s runeSet) has(r rune) bool {
	i := uint32(r) >> 6
	return i < uint32(len(s)) && s[i]&(1<<(uint32(r)&63)) != 0
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
	var keyRunes runeSet
	for id := range d.refs {
		key = x.appendLabel(key[:0], d.refRunes(int32(id)))
		k := string(key)
		keyRunes.addString(k)
		x.refs[k] = append(x.refs[k], int32(id))
	}
	x.compileGate(keyRunes)
	return x
}

// compileGate sets the dead-rune gate from keyRunes, the runes of the
// reference keys, and builds keep.
func (x *skelIndex) compileGate(keyRunes runeSet) {
	x.fold.markDead(keyRunes)
	x.keep = x.live
}

// live reports whether r, already folded, is live: whether every rune
// of its skeleton occurs in some reference key.
func (x *skelIndex) live(r rune) bool {
	return x.fold.entry(r)&deadBit == 0
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
		if k := f.entry(r) &^ deadBit; k != 0 {
			dst = append(dst, f.pool[f.ends[k-1]:f.ends[k]]...)
			continue
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst
}

// appendLive is appendLabel behind the dead-rune gate: it stops at the
// first dead rune and reports false, as that label can match no
// reference. The gate costs one bit test on the entry the fold reads
// anyway.
func (x *skelIndex) appendLive(dst []byte, runes []rune) ([]byte, bool) {
	f := &x.fold
	for _, r := range runes {
		k := f.entry(r)
		if k&deadBit != 0 {
			return dst, false
		}
		if k != 0 {
			dst = append(dst, f.pool[f.ends[k-1]:f.ends[k]]...)
			continue
		}
		dst = utf8.AppendRune(dst, r)
	}
	return dst, true
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
