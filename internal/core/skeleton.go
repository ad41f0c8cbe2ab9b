package core

import (
	"unicode/utf8"

	"repro/internal/homoglyph"
)

// skelIndex is the detector's one index, the TR39 skeleton map: every
// rune maps to a canonical prototype (a single representative rune, or a
// multi-rune sequence for many-to-one confusables), and every reference's
// whole-label skeleton is precomputed into a hash table — so a candidate
// label resolves to its imitated references in one probe, regardless of
// length.
//
// The per-rune mapping is the database view's fold rows
// (homoglyph.FoldRows): every connected component of the Confusable
// relation collapses to one representative. That construction is what
// lets one probe serve Algorithm 1 — Confusable(a,b) ⇒ same component ⇒
// same skeleton rune — so every reference a pairwise, same-length
// comparison could match shares the label's skeleton, and the postings
// backend only has to verify the candidates. Components whose
// representative carries a multi-rune UC prototype ('m' → "rn") expand
// to the mapped sequence, which is what catches the length-changing
// homographs ("rnicrosoft") the pairwise model cannot represent. The
// rows depend on the view alone, so the view computes them once (or a
// snapshot loads them) and a compile only reads them into fold, the
// same mapping compiled into tables.
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
	refs refTable // skeleton(ref) → ascending ids into Detector.refs
	fold foldTable
	keep func(rune) bool // live, as a func value built once
}

// foldTable is the fold rows compiled for appendLabel: a few array
// loads per rune in place of two row searches. An entry k > 0 names the
// rune's UTF-8 skeleton pool[ends[k-1]:ends[k]]; entry 0, like a rune
// past the table, means the rune maps to itself. ASCII runes read one flat
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
	// stackLen is the longest label, in bytes, whose runes and skeleton
	// provably fit probe's stack buffers: a label of n bytes decodes to
	// at most n runes, and each rune's skeleton is at most the longest
	// of utf8.UTFMax and the table's skeletons.
	stackLen int
}

// deadBit flags a dead rune in a fold table entry; the rest of the
// entry is its skeleton's index, 0 for a rune that maps to itself.
const deadBit = 1 << 31

// newFoldTable compiles the rows. Runes outside the rune space are
// dropped: neither decoded labels nor references can hold such a rune,
// so no lookup ever reached them.
func newFoldTable(x *homoglyph.FoldRows) foldTable {
	keys := make([]rune, 0, len(x.RepRunes)+len(x.SeqRunes))
	for r := range x.All() {
		keys = append(keys, r)
	}
	f := foldTable{
		ends: make([]uint32, 1, len(keys)+1),
		pool: make([]byte, 0, 2*len(keys)),
	}
	f.reserve(keys)
	for r, skel := range x.All() {
		if r < 0 || r > utf8.MaxRune {
			continue
		}
		for _, sr := range skel {
			f.pool = utf8.AppendRune(f.pool, sr)
		}
		f.ends = append(f.ends, uint32(len(f.pool)))
		k := uint32(len(f.ends) - 1)
		if r < 0x80 {
			f.ascii[r] = k
			continue
		}
		f.page(int(r >> 8))[r&0xff] = k
	}
	growth := utf8.UTFMax
	for k := 1; k < len(f.ends); k++ {
		growth = max(growth, int(f.ends[k]-f.ends[k-1]))
	}
	f.stackLen = min(stackRunes, stackSkel/growth)
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

// reserve sizes the directory and pages for the blocks of the
// non-ASCII runes of sorted (ascending), so that giving those blocks
// pages allocates nothing.
func (f *foldTable) reserve(sorted []rune) {
	blocks, last := 0, rune(-1)
	for _, r := range sorted {
		if r >= 0x80 && r <= utf8.MaxRune && r>>8 != last {
			blocks, last = blocks+1, r>>8
		}
	}
	f.dir = make([]uint16, last+1)
	f.pages = make([]uint32, 0, blocks<<8)
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

// add adds the runes of the UTF-8 text str.
func (s *runeSet) add(str []byte) {
	set := *s
	if len(set) < 2 {
		set = append(set, make([]uint64, 2-len(set))...)
	}
	lo, hi := set[0], set[1] // ASCII, in registers
	for i := 0; i < len(str); {
		if c := str[i]; c < 0x80 { // most key runes: no decode, no growth
			if bit := uint64(1) << (c & 63); c < 64 {
				lo |= bit
			} else {
				hi |= bit
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(str[i:])
		if w := int(r >> 6); w >= len(set) {
			set = append(set, make([]uint64, w+1-len(set))...)
		}
		set[r>>6] |= 1 << (r & 63)
		i += n
	}
	set[0], set[1] = lo, hi
	*s = set
}

// has reports whether r is in the set.
func (s runeSet) has(r rune) bool {
	i := uint32(r) >> 6
	return i < uint32(len(s)) && s[i]&(1<<(uint32(r)&63)) != 0
}

// indexRefs normalizes the references, keeps the first of each as
// d.refs with its runes in the arena, and fills the reference table. It
// returns the runes of the skeletons, for the gate.
//
// It is one pass over the references. Each skeleton is written to the
// end of the table's keys and looked up among the keys before it: a new
// key stays, and a known one is cut off again (refTable.add). Equal
// references have equal skeletons, so the table is also the dedupe set:
// a reference is a repeat when its key's list already holds it, and a
// repeat's runes are cut off the arena the same way. Every array is
// sized once, by the list's length and bytes; a key's ids are chained
// (last, prev) during the pass and laid out as ascending lists after
// it.
func (x *skelIndex) indexRefs(d *Detector, references []string) runeSet {
	n := 0
	for _, ref := range references {
		n += len(ref)
	}
	m := len(references)
	// The bytes bound the runes; a skeleton can outgrow its reference
	// ('m' → "rn"), hence the slack.
	refs := make([]string, 0, m)
	arena := make([]rune, 0, n)
	offs := make([]int32, 1, m+1)
	t := &x.refs
	t.keys = make([]byte, 0, n+n/2)
	t.slots = make([]uint64, slotsFor(m))
	t.bounds = make([]keyBounds, 1, m+1)
	last := make([]int32, 1, m+1) // last[k]: key k's latest id
	prev := make([]int32, 0, m)   // prev[id]: the id before it under its key, -1 for none
	for _, ref := range references {
		if ref = normalizeRef(ref); ref == "" {
			continue
		}
		start, kstart := len(arena), len(t.keys)
		for _, r := range ref {
			arena = append(arena, r)
		}
		t.keys = x.appendLabel(t.keys, arena[start:])
		k, added := t.add(kstart)
		if added {
			last = append(last, -1)
		} else if holds(refs, prev, last[k], ref) {
			arena = arena[:start]
			continue
		}
		id := int32(len(refs))
		refs = append(refs, ref)
		offs = append(offs, int32(len(arena)))
		prev = append(prev, last[k])
		last[k] = id
		t.bounds[k].id++ // a count until the lists are laid out
	}
	t.layOut(last, prev)
	d.refs, d.arena, d.offs = refs, arena, offs
	var keyRunes runeSet
	keyRunes.add(t.keys)
	return keyRunes
}

// holds reports whether ref is one of refs on the chain that starts at
// id and follows prev.
func holds(refs []string, prev []int32, id int32, ref string) bool {
	for ; id >= 0; id = prev[id] {
		if refs[id] == ref {
			return true
		}
	}
	return false
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
// anyway. A one-byte skeleton and an ASCII rune that maps to itself,
// nearly every rune of a zone label, append their byte directly.
func (x *skelIndex) appendLive(dst []byte, runes []rune) ([]byte, bool) {
	f := &x.fold
	for _, r := range runes {
		k := f.entry(r)
		if k&deadBit != 0 {
			return dst, false
		}
		if k != 0 {
			if lo, hi := f.ends[k-1], f.ends[k]; hi-lo == 1 {
				dst = append(dst, f.pool[lo])
			} else {
				dst = append(dst, f.pool[lo:hi]...)
			}
			continue
		}
		if r < 0x80 {
			dst = append(dst, byte(r))
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
