package homoglyph

import (
	"fmt"
	"sort"

	"repro/internal/confusables"
	"repro/internal/simchar"
)

// Snapshot is the flattened, serializable form of the compiled index: one
// row per indexed character (sorted by rune) plus the concatenated
// partner and source-mask arrays, laid out contiguously in rune order.
// It exists so the internal/snapshot codec can persist a fully compiled
// database and FromSnapshot can rebuild one without touching the font,
// the SimChar Δ scan, or the UC skeleton walk — the whole Section 3
// build cost collapses into bulk array reads.
type Snapshot struct {
	Use      Source
	Runes    []rune   // indexed characters, ascending
	Counts   []int32  // partners per character, parallel to Runes
	UCSkel   []rune   // precomputed UC skeleton (0 = none), parallel
	SimASCII []rune   // smallest ASCII SimChar partner (0 = none)
	SimLow   []rune   // smallest SimChar partner overall (0 = none)
	Partners []rune   // concatenated sorted partner lists, rune order
	Masks    []Source // parallel to Partners
}

// Snapshot flattens the compiled index. The layout is canonical (runes
// ascending, partner spans re-laid in that order), so equal databases
// produce identical snapshots regardless of map iteration order at
// compile time.
func (db *DB) Snapshot() *Snapshot {
	s := &Snapshot{Use: db.use}
	s.Runes = make([]rune, 0, len(db.idx.spans))
	for r := range db.idx.spans {
		s.Runes = append(s.Runes, r)
	}
	sort.Slice(s.Runes, func(i, j int) bool { return s.Runes[i] < s.Runes[j] })
	s.Counts = make([]int32, len(s.Runes))
	s.UCSkel = make([]rune, len(s.Runes))
	s.SimASCII = make([]rune, len(s.Runes))
	s.SimLow = make([]rune, len(s.Runes))
	s.Partners = make([]rune, 0, len(db.idx.partners))
	s.Masks = make([]Source, 0, len(db.idx.masks))
	for i, r := range s.Runes {
		sp := db.idx.spans[r]
		s.Counts[i] = sp.end - sp.start
		s.UCSkel[i] = sp.ucSkel
		s.SimASCII[i] = sp.simASCII
		s.SimLow[i] = sp.simLow
		s.Partners = append(s.Partners, db.idx.partners[sp.start:sp.end]...)
		s.Masks = append(s.Masks, db.idx.masks[sp.start:sp.end]...)
	}
	return s
}

// FromSnapshot rebuilds a database from its flattened form plus the
// component databases (either may be nil, matching New). The compiled
// index is taken from the snapshot verbatim — nothing is recompiled, so
// load cost is one map fill over the row arrays.
func FromSnapshot(s *Snapshot, uc *confusables.DB, sim *simchar.DB) (*DB, error) {
	n := len(s.Runes)
	if len(s.Counts) != n || len(s.UCSkel) != n || len(s.SimASCII) != n || len(s.SimLow) != n {
		return nil, fmt.Errorf("homoglyph: snapshot row arrays disagree on length")
	}
	if len(s.Partners) != len(s.Masks) {
		return nil, fmt.Errorf("homoglyph: %d partners vs %d masks", len(s.Partners), len(s.Masks))
	}
	use := s.Use
	if use == SourceNone {
		use = SourceUC | SourceSimChar
	}
	idx := &index{
		spans:    make(map[rune]span, n),
		partners: s.Partners,
		masks:    s.Masks,
	}
	off := int32(0)
	for i, r := range s.Runes {
		c := s.Counts[i]
		if c < 0 || int(off)+int(c) > len(s.Partners) {
			return nil, fmt.Errorf("homoglyph: snapshot partner spans overflow at U+%04X", r)
		}
		// Confusable binary-searches the row, so a row out of order
		// would miss pairs silently.
		for j := off + 1; j < off+c; j++ {
			if s.Partners[j] <= s.Partners[j-1] {
				return nil, fmt.Errorf("homoglyph: snapshot partners of U+%04X not strictly ascending", r)
			}
		}
		if _, dup := idx.spans[r]; dup {
			return nil, fmt.Errorf("homoglyph: duplicate snapshot row for U+%04X", r)
		}
		idx.spans[r] = span{
			start:    off,
			end:      off + c,
			ucSkel:   s.UCSkel[i],
			simASCII: s.SimASCII[i],
			simLow:   s.SimLow[i],
		}
		off += c
	}
	if int(off) != len(s.Partners) {
		return nil, fmt.Errorf("homoglyph: %d partners unclaimed by snapshot rows", len(s.Partners)-int(off))
	}
	return &DB{uc: uc, sim: sim, use: use, idx: idx}, nil
}
