package homoglyph

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sync"
	"unicode/utf8"
)

// FoldRows is a view's per-rune skeleton mapping, as sorted rows: the
// TR39-style fold a detector indexes references and labels under. It
// depends on the view alone, so a view computes it once, on first use,
// and a snapshot stores it with the database (see Snapshot.Rows).
//
// The mapping is derived from the pairwise graph by union-find: every
// connected component of the Confusable relation collapses to one
// representative, its smallest rune, so Confusable(a, b) implies that
// a and b fold alike. On top of that, components whose representative
// carries a multi-rune UC prototype ('m' → "rn") fold to the mapped
// sequence, which is what lets one probe catch the length-changing
// homographs ("rnicrosoft") the pairwise model cannot represent.
//
// RepRunes (ascending) map to Reps, their non-identity component
// representatives. SeqRunes (ascending) key the multi-rune skeletons,
// already rep-mapped: entry i is the next SeqLens[i] runes of Seqs. A
// rune in both maps to its sequence.
type FoldRows struct {
	RepRunes, Reps []rune
	SeqRunes       []rune
	SeqLens        []int32
	Seqs           []rune
}

// foldState holds a view's rows, computed on first use. Views with the
// same mask share one.
type foldState struct {
	once sync.Once
	rows *FoldRows
}

// FoldRows returns the view's fold rows: the ones a snapshot stored, or
// else the union-find and the expansion, run once per view. The rows
// are shared and must not be mutated.
func (db *DB) FoldRows() *FoldRows {
	db.fold.once.Do(func() {
		if db.fold.rows == nil {
			db.fold.rows = db.computeFoldRows()
		}
	})
	return db.fold.rows
}

// All yields every mapped rune, ascending, with its skeleton: its
// sequence, or else its representative.
func (x *FoldRows) All() iter.Seq2[rune, []rune] {
	return func(yield func(rune, []rune) bool) {
		i, off := 0, 0
		for j, r := range x.SeqRunes {
			for ; i < len(x.RepRunes) && x.RepRunes[i] < r; i++ {
				if !yield(x.RepRunes[i], x.Reps[i:i+1]) {
					return
				}
			}
			if i < len(x.RepRunes) && x.RepRunes[i] == r {
				i++
			}
			l := int(x.SeqLens[j])
			if !yield(r, x.Seqs[off:off+l]) {
				return
			}
			off += l
		}
		for ; i < len(x.RepRunes); i++ {
			if !yield(x.RepRunes[i], x.Reps[i:i+1]) {
				return
			}
		}
	}
}

// repOf returns r's representative, r itself when it has none.
func (x *FoldRows) repOf(r rune) rune {
	if i, ok := slices.BinarySearch(x.RepRunes, r); ok {
		return x.Reps[i]
	}
	return r
}

// check reports whether the rows are framed as computeFoldRows frames
// them: the table lengths agree, the runes strictly ascend, and every
// sequence is at least two runes long, the sequences filling Seqs
// exactly.
func (x *FoldRows) check() error {
	if len(x.Reps) != len(x.RepRunes) {
		return fmt.Errorf("homoglyph: fold rep table: %d runes, %d reps", len(x.RepRunes), len(x.Reps))
	}
	if len(x.SeqLens) != len(x.SeqRunes) {
		return fmt.Errorf("homoglyph: fold seq table: %d runes, %d lengths", len(x.SeqRunes), len(x.SeqLens))
	}
	if !strictlyAscending(x.RepRunes) || !strictlyAscending(x.SeqRunes) {
		return fmt.Errorf("homoglyph: fold tables not strictly ascending")
	}
	off := 0
	for i := range x.SeqRunes {
		l := int(x.SeqLens[i])
		if l < 2 || off+l > len(x.Seqs) {
			return fmt.Errorf("homoglyph: fold seq %d: bad length %d", i, l)
		}
		off += l
	}
	if off != len(x.Seqs) {
		return fmt.Errorf("homoglyph: fold seqs: %d trailing runes", len(x.Seqs)-off)
	}
	return nil
}

// clone returns a copy of the rows that shares no array with them.
func (x *FoldRows) clone() *FoldRows {
	return &FoldRows{
		RepRunes: slices.Clone(x.RepRunes),
		Reps:     slices.Clone(x.Reps),
		SeqRunes: slices.Clone(x.SeqRunes),
		SeqLens:  slices.Clone(x.SeqLens),
		Seqs:     slices.Clone(x.Seqs),
	}
}

// strictlyAscending reports whether s ascends with no repeats.
func strictlyAscending(s []rune) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// computeFoldRows runs the union-find and then the expansion over the
// view's characters.
func (db *DB) computeFoldRows() *FoldRows {
	chars := db.charRunes()
	rows := &FoldRows{}
	rows.RepRunes, rows.Reps = db.representatives(chars)
	db.expansions(chars, rows)
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
func (db *DB) representatives(chars []rune) (runes, reps []rune) {
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
	// id returns p's id, giving a partner outside chars the next one.
	// A rune with an index row keeps its id+1 in slots, by row number.
	// Only a loaded database can list a partner with no row of its own,
	// so such a rune is looked up in chars, or else in a map.
	slots := make([]int32, len(db.idx.runes))
	for i, r := range chars {
		if row := db.idx.row(r); row >= 0 {
			slots[row] = int32(i) + 1
		}
	}
	var extra map[rune]int32
	id := func(p rune) int32 {
		if row := db.idx.row(p); row >= 0 {
			if slots[row] == 0 { // a partner outside chars
				parent = append(parent, int32(len(parent)))
				slots[row] = int32(len(parent))
			}
			return slots[row] - 1
		}
		if i, ok := slices.BinarySearch(chars, p); ok {
			return int32(i)
		}
		i, ok := extra[p]
		if !ok {
			if extra == nil {
				extra = make(map[rune]int32)
			}
			i = int32(len(parent))
			parent = append(parent, i)
			extra[p] = i
		}
		return i
	}
	var partners []rune
	for i, r := range chars {
		partners = db.HomoglyphsAppend(partners[:0], r)
		for _, p := range partners {
			a, b := find(int32(i)), find(id(p))
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
func (db *DB) expansions(chars []rune, x *FoldRows) {
	uc := db.uc
	if db.use&SourceUC == 0 || uc == nil {
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
			x.SeqRunes = append(x.SeqRunes, r)
			x.SeqLens = append(x.SeqLens, int32(len(out)))
			x.Seqs = append(x.Seqs, out...)
		}
	}
}

// charRunes returns the characters of Chars, ascending. It gathers
// them in a bitset over the rune space rather than in RuneSets, as
// the fold rows' union-find reads it. On the fast-font database (4,711
// appended runes, 3,099 distinct) this takes 0.09 ms, and sorting and
// compacting the appended runes 0.43 ms (2-vCPU Xeon). Values outside
// the rune space, which a loaded database can hold, are sorted apart
// and placed at the ends.
func (db *DB) charRunes() []rune {
	var all []rune
	if db.use&SourceSimChar != 0 && db.sim != nil {
		all = db.sim.AppendChars(all)
	}
	if db.use&SourceUC != 0 && db.uc != nil {
		all = db.uc.AppendChars(all)
	}
	top := rune(-1)
	for _, r := range all {
		if r <= utf8.MaxRune {
			top = max(top, r)
		}
	}
	set := make([]uint64, top/64+1)
	var odd []rune
	for _, r := range all {
		if r < 0 || r > utf8.MaxRune {
			odd = append(odd, r)
			continue
		}
		set[r>>6] |= 1 << (r & 63)
	}
	slices.Sort(odd)
	odd = slices.Compact(odd)
	split, _ := slices.BinarySearch(odd, 0)
	out := append(all[:0], odd[:split]...)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			out = append(out, rune(w<<6|bits.TrailingZeros64(word)))
		}
	}
	return append(out, odd[split:]...)
}
