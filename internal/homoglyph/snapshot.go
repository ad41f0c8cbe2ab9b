package homoglyph

import (
	"fmt"

	"repro/internal/confusables"
	"repro/internal/simchar"
)

// Snapshot is the flattened, serializable form of the compiled index: one
// row per indexed character (sorted by rune) plus the concatenated
// partner and source-mask arrays, laid out contiguously in rune order,
// and the view's fold rows. It exists so the internal/snapshot codec
// can persist a fully compiled database and FromSnapshot can rebuild
// one without touching the font, the SimChar Δ scan, the UC skeleton
// walk or the fold's union-find — the whole Section 3 build cost
// collapses into bulk array reads.
type Snapshot struct {
	Use      Source
	Runes    []rune   // indexed characters, ascending
	Counts   []int32  // partners per character, parallel to Runes
	UCSkel   []rune   // precomputed UC skeleton (0 = none), parallel
	SimASCII []rune   // smallest ASCII SimChar partner (0 = none)
	SimLow   []rune   // smallest SimChar partner overall (0 = none)
	Partners []rune   // concatenated sorted partner lists, rune order
	Masks    []Source // parallel to Partners
	// Rows are the view's fold rows (see FoldRows). Nil leaves them to
	// be computed on first use.
	Rows *FoldRows
}

// Snapshot flattens the compiled index and the view's fold rows,
// computing the rows first if the view has not. The layout is
// canonical (runes ascending, partner spans laid out in that order) and
// is the index's own, so equal databases produce identical snapshots
// and this is a copy of the rows.
func (db *DB) Snapshot() *Snapshot {
	x := db.idx
	n := len(x.runes)
	s := &Snapshot{
		Use:      db.use,
		Runes:    make([]rune, n),
		Counts:   make([]int32, n),
		UCSkel:   make([]rune, n),
		SimASCII: make([]rune, n),
		SimLow:   make([]rune, n),
		Partners: make([]rune, len(x.partners)),
		Masks:    make([]Source, len(x.masks)),
		Rows:     db.FoldRows().clone(),
	}
	copy(s.Runes, x.runes)
	copy(s.Partners, x.partners)
	copy(s.Masks, x.masks)
	for i, sp := range x.rows {
		s.Counts[i] = sp.end - sp.start
		s.UCSkel[i] = sp.ucSkel
		s.SimASCII[i] = sp.simASCII
		s.SimLow[i] = sp.simLow
	}
	return s
}

// FromSnapshot rebuilds a database from its flattened form plus the
// component databases (either may be nil, matching New). The compiled
// index is taken from the snapshot verbatim — nothing is recompiled:
// the rune, partner and mask arrays become the index's own, and so do
// the fold rows, so the snapshot must not be mutated afterwards, and
// load cost is one pass over the rows plus the directory build. The
// fold rows must be framed as the view computes them (runes strictly
// ascending, every sequence two runes or more, the sequences filling
// Seqs exactly); that they are the rows this database's graph gives is
// the writer's word, as for the rest of the index.
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
	rows := make([]span, n)
	off := int32(0)
	for i, r := range s.Runes {
		// The directory and the binary search both rely on the order,
		// and a repeated rune would hide its second row.
		if i > 0 && r <= s.Runes[i-1] {
			return nil, fmt.Errorf("homoglyph: snapshot rows not strictly ascending at U+%04X", r)
		}
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
		rows[i] = span{
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
	if s.Rows != nil {
		if err := s.Rows.check(); err != nil {
			return nil, err
		}
	}
	return &DB{uc: uc, sim: sim, use: use, idx: newIndex(s.Runes, rows, s.Partners, s.Masks), fold: &foldState{rows: s.Rows}}, nil
}
