// Package homoglyph provides the unified homoglyph database the ShamFinder
// framework queries during detection: the union of the UC confusables
// database and the automatically built SimChar database (paper Figure 2).
// It also implements the homograph→original reversion of Section 6.4.
//
// The union is compiled once, at New() time, into an immutable flattened
// index: one sorted partner array per character with a per-partner source
// mask, plus precomputed canonicalization data. Queries never walk the
// component databases — Confusable is one directory load plus one binary
// search, and Homoglyphs returns a filtered copy of the precompiled
// partner list instead of re-scanning every UC source. Source-restricted
// views (WithSources) share the same index and filter by mask at query
// time. Each view also has its fold rows (FoldRows), the per-rune
// skeleton mapping a detector indexes under, computed once per view or
// loaded from a snapshot.
package homoglyph

import (
	"slices"
	"sort"
	"unicode/utf8"

	"repro/internal/confusables"
	"repro/internal/simchar"
	"repro/internal/ucd"
)

// Source identifies which component database(s) vouch for a pair.
type Source uint8

const (
	// SourceNone means the pair is not in the database.
	SourceNone Source = 0
	// SourceUC marks pairs from the TR39 confusables database.
	SourceUC Source = 1 << iota
	// SourceSimChar marks pairs from the pixel-distance database.
	SourceSimChar
)

// String names the source combination.
func (s Source) String() string {
	switch s {
	case SourceUC:
		return "UC"
	case SourceSimChar:
		return "SimChar"
	case SourceUC | SourceSimChar:
		return "UC∪SimChar"
	default:
		return "none"
	}
}

// span is one character's slice of the flattened partner arrays plus its
// precomputed canonicalization targets (zero = none).
type span struct {
	start, end int32
	ucSkel     rune // UC skeleton, when it differs from the rune itself
	simASCII   rune // smallest ASCII SimChar partner
	simLow     rune // smallest SimChar partner overall
}

// index is the immutable compiled union, shared by every WithSources view.
// Row i holds character runes[i]; runes ascend, and the rows' partner
// spans are laid out back to back in that order, the layout Snapshot
// writes. A character in 0..utf8.MaxRune finds its row through a paged
// directory: dir maps rune>>8 to a 256-entry page, whose entry is the
// row+1 of each rune of the block, 0 for one with no row. Page 0 is all
// zeros, shared by every block with no indexed rune. Any other value,
// which only a crafted snapshot can index, is found by a binary search
// over runes.
type index struct {
	runes    []rune
	rows     []span   // parallel to runes
	dir      []uint16 // rune>>8 → page number
	pages    []uint32 // page p occupies pages[p<<8 : (p+1)<<8]
	partners []rune   // concatenated sorted partner lists
	masks    []Source // parallel to partners
}

// newIndex returns the index over rows, whose runes ascend strictly,
// with its directory built.
func newIndex(runes []rune, rows []span, partners []rune, masks []Source) *index {
	x := &index{runes: runes, rows: rows, partners: partners, masks: masks}
	blocks, last := 1, rune(-1)
	for _, r := range runes {
		if r >= 0 && r <= utf8.MaxRune && r>>8 != last {
			blocks, last = blocks+1, r>>8
		}
	}
	x.dir = make([]uint16, last+1)
	x.pages = make([]uint32, 256, blocks<<8)
	for i, r := range runes {
		if r < 0 || r > utf8.MaxRune {
			continue
		}
		if x.dir[r>>8] == 0 {
			// Runes ascend, so a block's page is always the last one.
			x.dir[r>>8] = uint16(len(x.pages) >> 8)
			x.pages = x.pages[:len(x.pages)+256]
		}
		x.pages[int(x.dir[r>>8])<<8|int(r&0xff)] = uint32(i) + 1
	}
	return x
}

// row returns r's row number, -1 when r has no row.
func (x *index) row(r rune) int {
	if hi := uint32(r) >> 8; hi < uint32(len(x.dir)) {
		return int(x.pages[uint32(x.dir[hi])<<8|uint32(r)&0xff]) - 1
	}
	return x.rowPastDir(r)
}

// rowPastDir is row for a value past the directory: a rune above every
// indexed block, which has no row, or a value outside 0..utf8.MaxRune.
func (x *index) rowPastDir(r rune) int {
	if uint32(r) <= utf8.MaxRune {
		return -1
	}
	if i, ok := slices.BinarySearch(x.runes, r); ok {
		return i
	}
	return -1
}

// DB is the unified homoglyph database.
type DB struct {
	uc   *confusables.DB
	sim  *simchar.DB
	use  Source
	idx  *index
	fold *foldState // the view's fold rows, computed on first use
}

// New builds a database from the available components; either may be nil.
// The use mask restricts which components answer queries, letting the
// evaluation compare UC-only (the prior work of Quinkert et al.) against
// SimChar and the union (paper Tables 8 and 14). The component union is
// compiled into the flattened index here, once; WithSources views reuse it.
func New(uc *confusables.DB, sim *simchar.DB, use Source) *DB {
	if use == SourceNone {
		use = SourceUC | SourceSimChar
	}
	return &DB{uc: uc, sim: sim, use: use, idx: compile(uc, sim), fold: &foldState{}}
}

// WithSources returns a view of the same database restricted to the
// mask. A view with the database's own mask shares its fold rows.
func (db *DB) WithSources(use Source) *DB {
	fold := db.fold
	if use != db.use {
		fold = &foldState{}
	}
	return &DB{uc: db.uc, sim: db.sim, use: use, idx: db.idx, fold: fold}
}

// compile flattens the UC ∪ SimChar union. UC confusability is skeleton
// equality (a ~ b iff skeleton(a) == skeleton(b)), so each skeleton class
// — the sources resolving to a prototype, plus the prototype itself —
// forms a clique of partners. SimChar pairs are symmetric already.
func compile(uc *confusables.DB, sim *simchar.DB) *index {
	adj := make(map[rune]map[rune]Source)
	link := func(a, b rune, src Source) {
		m := adj[a]
		if m == nil {
			m = make(map[rune]Source)
			adj[a] = m
		}
		m[b] |= src
	}

	if sim != nil {
		for _, r := range sim.AppendChars(nil) {
			for _, h := range sim.Homoglyphs(r) {
				link(r, h, SourceSimChar)
			}
		}
	}
	if uc != nil {
		// UC confusability is FULL-skeleton equality: every rune sharing a
		// prototype sequence forms a clique. Keying classes by the complete
		// sequence (not its first rune, the pre-fix truncation) keeps a
		// multi-rune-prototype source ('Ⅱ' → "II") out of the prototype's
		// single-rune clique — pairing it with 'I' would let the pairwise
		// backend claim confusions TR39 does not list, and could even mint
		// ASCII↔ASCII pairs ('m' ~ 'r'), breaking posting soundness. Runes
		// whose sequences agree ('w' and 'Ԝ' both → "vv") still pair up.
		classes := make(map[string][]rune)
		var skel []rune
		for _, s := range uc.Sources() {
			skel = uc.SkeletonAppend(skel[:0], s)
			if len(skel) == 1 && skel[0] == s {
				continue // self-prototype: nothing to pair with
			}
			classes[string(skel)] = append(classes[string(skel)], s)
		}
		for sk, members := range classes {
			// A single-rune prototype belongs to its own class, unless it
			// maps onward itself (then it sits in the class it maps into).
			if prot := []rune(sk); len(prot) == 1 {
				if t := uc.SkeletonAppend(nil, prot[0]); len(t) == 1 && t[0] == prot[0] {
					members = append(members, prot[0])
				}
			}
			for _, a := range members {
				for _, b := range members {
					if a != b {
						link(a, b, SourceUC)
					}
				}
			}
		}
	}

	// Lay the rows out in ascending rune order, the index's layout, so
	// the arena is identical across runs and Snapshot copies it as is.
	order := make([]rune, 0, len(adj))
	for r := range adj {
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	rows := make([]span, 0, len(order))
	var partners []rune
	var masks []Source
	for _, r := range order {
		m := adj[r]
		sp := span{start: int32(len(partners))}
		ps := make([]rune, 0, len(m))
		for p := range m {
			ps = append(ps, p)
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		for _, p := range ps {
			partners = append(partners, p)
			masks = append(masks, m[p])
		}
		sp.end = int32(len(partners))
		if uc != nil {
			// CanonicalRune follows the chain only through single-rune
			// targets: a rune whose prototype is a sequence has no one-rune
			// original, so it canonicalizes no further: 'Ⅱ' (prototype
			// "II") stays itself rather than becoming 'I'.
			if sk := uc.CanonicalRune(r); sk != r {
				sp.ucSkel = sk
			}
		}
		if sim != nil {
			if hs := sim.Homoglyphs(r); len(hs) > 0 {
				sp.simLow = hs[0]
				for _, h := range hs {
					if h < 0x80 {
						sp.simASCII = h
						break
					}
				}
			}
		}
		rows = append(rows, sp)
	}
	return newIndex(order, rows, partners, masks)
}

// Confusable reports whether a and b are listed as a homoglyph pair, and
// by which component: one directory load for a's row and one binary
// search over its slice of the flattened partner array.
func (db *DB) Confusable(a, b rune) (bool, Source) {
	if a == b {
		return true, db.use
	}
	i := db.idx.row(a)
	if i < 0 {
		return false, SourceNone
	}
	sp := &db.idx.rows[i]
	lo, hi := sp.start, sp.end
	for lo < hi {
		mid := (lo + hi) / 2
		switch p := db.idx.partners[mid]; {
		case p < b:
			lo = mid + 1
		case p > b:
			hi = mid
		default:
			if src := db.idx.masks[mid] & db.use; src != 0 {
				return true, src
			}
			return false, SourceNone
		}
	}
	return false, SourceNone
}

// Homoglyphs returns every character listed as confusable with r under
// the view's sources, sorted ascending. The result is exactly the set of
// x ≠ r for which Confusable(r, x) holds.
func (db *DB) Homoglyphs(r rune) []rune {
	i := db.idx.row(r)
	if i < 0 {
		return nil
	}
	sp := &db.idx.rows[i]
	return db.HomoglyphsAppend(make([]rune, 0, sp.end-sp.start), r)
}

// HomoglyphsAppend appends Homoglyphs(r) to dst and returns the
// extended slice, so a walk over many runes can reuse one buffer.
func (db *DB) HomoglyphsAppend(dst []rune, r rune) []rune {
	row := db.idx.row(r)
	if row < 0 {
		return dst
	}
	sp := &db.idx.rows[row]
	for i := sp.start; i < sp.end; i++ {
		if db.idx.masks[i]&db.use != 0 {
			dst = append(dst, db.idx.partners[i])
		}
	}
	return dst
}

// Canonical maps r to its most plausible original character: the UC
// skeleton if listed, otherwise the smallest ASCII partner in SimChar,
// otherwise r itself. This drives the Section 6.4 reversion and the
// Figure 12 warning UI ("Lao Digit Zero → Latin Small Letter O"). All
// candidates are precomputed at New() time, so this is O(1).
func (db *DB) Canonical(r rune) rune {
	if r < 0x80 {
		return r
	}
	i := db.idx.row(r)
	if i < 0 {
		return r
	}
	sp := &db.idx.rows[i]
	if db.use&SourceUC != 0 && sp.ucSkel != 0 {
		return sp.ucSkel
	}
	if db.use&SourceSimChar != 0 {
		if sp.simASCII != 0 {
			return sp.simASCII
		}
		// No ASCII partner: fall back to the smallest partner so chains
		// (e.g. Hangul tail twins) still canonicalize deterministically.
		if sp.simLow != 0 && sp.simLow < r {
			return sp.simLow
		}
	}
	return r
}

// Revert maps every rune of a (Unicode-form) label to its canonical
// counterpart, reconstructing the domain a homograph targets (§6.4).
func (db *DB) Revert(label string) string {
	out := make([]rune, 0, len(label))
	for _, r := range label {
		out = append(out, db.Canonical(r))
	}
	return string(out)
}

// Chars returns the set of non-ASCII characters known to the database
// under the current mask (Table 1 accounting).
func (db *DB) Chars() *ucd.RuneSet {
	s := ucd.NewRuneSet()
	if db.use&SourceSimChar != 0 && db.sim != nil {
		s = s.Union(db.sim.Chars())
	}
	if db.use&SourceUC != 0 && db.uc != nil {
		s = s.Union(db.uc.Chars())
	}
	return s
}

// Use returns the view's active source mask.
func (db *DB) Use() Source { return db.use }

// UC returns the UC component (may be nil).
func (db *DB) UC() *confusables.DB { return db.uc }

// SimChar returns the SimChar component (may be nil).
func (db *DB) SimChar() *simchar.DB { return db.sim }
