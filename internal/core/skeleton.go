package core

import (
	"iter"
	"slices"
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
// rows are the build and snapshot form of the per-rune mapping; the
// hot path reads fold, the same mapping compiled into tables.
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
	refs map[string][]int32 // skeleton(ref) → ascending ids into Detector.refs
	fold foldTable
	keep func(rune) bool // live, as a func value built once
	rows skelRows        // build and snapshot only, so after the hot fields
}

// skelRows is the per-rune mapping as sorted rows, laid out as the
// snapshot stores it. repRunes (ascending) map to reps, their
// non-identity component representatives. seqRunes (ascending) key the
// multi-rune skeletons, already rep-mapped: entry i is the next
// seqLens[i] runes of seqs. A rune in both maps to its sequence.
type skelRows struct {
	repRunes, reps []rune
	seqRunes       []rune
	seqLens        []int32
	seqs           []rune
}

// all yields every mapped rune, ascending, with its skeleton: its
// sequence, or else its representative.
func (x *skelRows) all() iter.Seq2[rune, []rune] {
	return func(yield func(rune, []rune) bool) {
		i, off := 0, 0
		for j, r := range x.seqRunes {
			for ; i < len(x.repRunes) && x.repRunes[i] < r; i++ {
				if !yield(x.repRunes[i], x.reps[i:i+1]) {
					return
				}
			}
			if i < len(x.repRunes) && x.repRunes[i] == r {
				i++
			}
			l := int(x.seqLens[j])
			if !yield(r, x.seqs[off:off+l]) {
				return
			}
			off += l
		}
		for ; i < len(x.repRunes); i++ {
			if !yield(x.repRunes[i], x.reps[i:i+1]) {
				return
			}
		}
	}
}

// repOf returns r's representative, r itself when it has none.
func (x *skelRows) repOf(r rune) rune {
	if i, ok := slices.BinarySearch(x.repRunes, r); ok {
		return x.reps[i]
	}
	return r
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
func newFoldTable(x *skelRows) foldTable {
	keys := make([]rune, 0, len(x.repRunes)+len(x.seqRunes))
	for r := range x.all() {
		keys = append(keys, r)
	}
	f := foldTable{
		ends: make([]uint32, 1, len(keys)+1),
		pool: make([]byte, 0, 2*len(keys)),
	}
	f.reserve(keys, 0x80)
	for r, skel := range x.all() {
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

// reserve sizes the directory and pages for the blocks of the runes of
// sorted (ascending) in [lo, utf8.MaxRune], so that giving those blocks
// pages allocates nothing.
func (f *foldTable) reserve(sorted []rune, lo rune) {
	blocks, last := 0, rune(-1)
	for _, r := range sorted {
		if r >= lo && r <= utf8.MaxRune && r>>8 != last {
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

// addString adds the runes of str.
func (s *runeSet) addString(str string) {
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
		r, n := utf8.DecodeRuneInString(str[i:])
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

// newSkelRows computes the per-rune mapping of db's view as rows:
// the union-find, then the expansion.
func newSkelRows(db *homoglyph.DB) skelRows {
	chars := db.CharRunes()
	var rows skelRows
	rows.repRunes, rows.reps = representatives(db, chars)
	expansions(db, chars, &rows)
	return rows
}

// representatives maps each rune of chars (ascending) to the
// representative of its connected component of the pairwise graph, the
// component's smallest rune of chars, leaving out the runes that are
// their own. It returns the rep rows, in the order of chars.
//
// The union-find runs over dense ids: chars[i] is id i, and a partner
// outside chars takes the next free id when first seen. A union hangs
// the larger root under the smaller, so every root is its component's
// smallest id, and a partner outside chars, numbered after all of them,
// is never a representative.
func representatives(db *homoglyph.DB, chars []rune) (runes, reps []rune) {
	parent := make([]int32, len(chars))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(i int32) int32 {
		for parent[i] != i {
			parent[i] = parent[parent[i]] // path halving
			i = parent[i]
		}
		return i
	}
	// id returns the slot that holds r's id+1, 0 until r has one. A
	// rune's slot is an entry of a fold table's pages, used here as a
	// dense rune-indexed array; a value outside the rune space, which a
	// loaded database can hold, gets a map entry instead.
	var ids foldTable
	ids.reserve(chars, 0)
	var odd map[rune]*uint32
	id := func(r rune) *uint32 {
		if uint32(r) <= utf8.MaxRune {
			return &ids.page(int(r >> 8))[r&0xff]
		}
		if odd[r] == nil {
			if odd == nil {
				odd = make(map[rune]*uint32)
			}
			odd[r] = new(uint32)
		}
		return odd[r]
	}
	for i, r := range chars {
		*id(r) = uint32(i) + 1
	}
	var partners []rune
	for i, r := range chars {
		partners = db.HomoglyphsAppend(partners[:0], r)
		for _, p := range partners {
			pid := id(p)
			if *pid == 0 { // a partner outside chars
				parent = append(parent, int32(len(parent)))
				*pid = uint32(len(parent))
			}
			a, b := find(int32(i)), find(int32(*pid-1))
			if a > b {
				a, b = b, a
			}
			parent[b] = a
		}
	}
	n := 0
	for i := range chars {
		if find(int32(i)) != int32(i) {
			n++
		}
	}
	runes, reps = make([]rune, 0, n), make([]rune, 0, n)
	for i, r := range chars {
		if root := find(int32(i)); root != int32(i) {
			runes, reps = append(runes, r), append(reps, chars[root])
		}
	}
	return runes, reps
}

// expansions fills x's seq rows with the multi-rune skeletons of chars
// (ascending), from its rep rows.
//
// Sequence expansion is decided per COMPONENT, by its representative:
// if the rep's full UC prototype is multi-rune, every member of the
// component skeletonizes to that sequence (each sequence rune itself
// resolved recursively). Deciding by member instead would let a
// SimChar-only partner of 'w' keep skeleton 'w' while 'w' itself went
// to "vv", silently dropping pairwise matches from the candidates.
func expansions(db *homoglyph.DB, chars []rune, x *skelRows) {
	uc := db.UC()
	if db.Use()&homoglyph.SourceUC == 0 || uc == nil {
		return
	}
	// protos[depth] holds the prototype walked at that depth, so the
	// recursion reuses one buffer per level.
	var protos [8][]rune
	var expand func(r rune, depth int, dst []rune) []rune
	expand = func(r rune, depth int, dst []rune) []rune {
		r = x.repOf(r)
		if depth < len(protos) {
			protos[depth] = uc.SkeletonAppend(protos[depth][:0], r)
			if s := protos[depth]; len(s) > 1 {
				for _, t := range s {
					dst = expand(t, depth+1, dst)
				}
				return dst
			}
		}
		return append(dst, r)
	}
	var out []rune
	for _, r := range chars {
		if out = expand(r, 0, out[:0]); len(out) > 1 {
			x.seqRunes = append(x.seqRunes, r)
			x.seqLens = append(x.seqLens, int32(len(out)))
			x.seqs = append(x.seqs, out...)
		}
	}
}

// indexRefs normalizes the references, keeps the first of each as
// d.refs with its runes in the arena, and maps every kept reference's
// skeleton to its ids. It returns the runes of the skeletons, for the
// gate.
//
// The skeletons are written back to back into one buffer that becomes
// one string, so each key is a substring of it, and the id lists are
// cap-limited subslices of one array, so a list is copied only when a
// second reference shares its skeleton. Equal references have equal
// skeletons, so the key map is also the dedupe set: a reference is a
// repeat when its key's list already holds it.
func (x *skelIndex) indexRefs(d *Detector, references []string) runeSet {
	n := 0
	for _, ref := range references {
		n += len(ref)
	}
	// Every normalized reference, its runes and its skeleton, repeats
	// included; offs and ends close each one's runes and skeleton. The
	// bytes bound the runes; a skeleton can outgrow its reference
	// ('m' → "rn"), hence the slack.
	norm := make([]string, 0, len(references))
	arena := make([]rune, 0, n)
	offs := make([]int32, 1, len(references)+1)
	buf := make([]byte, 0, n+n/2)
	ends := make([]int, 1, len(references)+1)
	for _, ref := range references {
		if ref = normalizeRef(ref); ref == "" {
			continue
		}
		start := len(arena)
		for _, r := range ref {
			arena = append(arena, r)
		}
		buf = x.appendLabel(buf, arena[start:])
		norm = append(norm, ref)
		offs = append(offs, int32(len(arena)))
		ends = append(ends, len(buf))
	}
	keys := string(buf)
	var keyRunes runeSet
	keyRunes.addString(keys)

	x.refs = make(map[string][]int32, len(norm))
	ids := make([]int32, len(norm))
	d.refs = norm[:0] // the kept references, compacted in place
	for i, ref := range norm {
		k := keys[ends[i]:ends[i+1]]
		list, collides := x.refs[k]
		if collides && d.holds(list, ref) {
			continue
		}
		id := int32(len(d.refs))
		d.refs = append(d.refs, ref)
		ids[id] = id
		if collides {
			x.refs[k] = append(list, id)
		} else {
			x.refs[k] = ids[id : id+1 : id+1]
		}
	}
	d.arena, d.offs = arena, offs
	if len(d.refs) < len(norm) {
		d.buildArena() // a repeat was dropped: lay out the kept ones alone
	}
	return keyRunes
}

// holds reports whether ref is the reference of one of ids.
func (d *Detector) holds(ids []int32, ref string) bool {
	for _, id := range ids {
		if d.refs[id] == ref {
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
