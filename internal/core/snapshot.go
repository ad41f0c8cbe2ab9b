package core

import (
	"fmt"
	"slices"

	"repro/internal/homoglyph"
)

// Snapshot is the flattened, position-independent form of a built
// Detector: the deduplicated reference list plus the per-rune skeleton
// rows, laid out in contiguous arrays. The rows depend on the database
// alone and are the costly part of a compile (the union-find and the
// expansion); the reference index is not stored, since compiling the
// list over loaded rows costs little more than checking a stored index
// would. The internal/snapshot codec writes a Snapshot with bulk slice
// writes, and NewDetectorFromSnapshot compiles one.
type Snapshot struct {
	// Refs is the detector's reference list, normalized and
	// deduplicated, in insertion order.
	Refs []string

	// The per-rune skeleton rows, as the detector holds them, runes
	// ascending, so identical detectors serialize byte-identically and
	// a load/re-snapshot round trip is exact.

	// SkelRepRunes/SkelReps are the non-identity component-representative
	// pairs, SkelRepRunes ascending.
	SkelRepRunes []rune
	SkelReps     []rune
	// SkelSeqRunes (ascending) key the multi-rune skeletons; entry i's
	// sequence is the next SkelSeqLens[i] runes of SkelSeqs.
	SkelSeqRunes []rune
	SkelSeqLens  []int32
	SkelSeqs     []rune
}

// Snapshot flattens the detector into its serializable form.
func (d *Detector) Snapshot() *Snapshot {
	rows := &d.skel.rows
	return &Snapshot{
		Refs:         append([]string(nil), d.refs...),
		SkelRepRunes: append([]rune(nil), rows.repRunes...),
		SkelReps:     append([]rune(nil), rows.reps...),
		SkelSeqRunes: append([]rune(nil), rows.seqRunes...),
		SkelSeqLens:  append([]int32(nil), rows.seqLens...),
		SkelSeqs:     append([]rune(nil), rows.seqs...),
	}
}

// NewDetectorFromSnapshot builds a detector over an already-loaded
// homoglyph database from a snapshot: the snapshot's rows stand in for
// the union-find and expansion of NewDetector, and the rest is the same
// compile, so a loaded detector's index is the one its list compiles
// to. The rows are the snapshot's own arrays, not copies; the snapshot
// must not be mutated afterwards. The db must be the one serialized
// alongside the detector — the rows bake in its homoglyph classes.
//
// A crafted snapshot fails loudly: the rows must be framed as the
// writer frames them, and Refs must be exactly the list the compile
// keeps, so an empty, repeated or un-normalized reference is rejected.
func NewDetectorFromSnapshot(db *homoglyph.DB, s *Snapshot) (*Detector, error) {
	rows, err := rowsFromSnapshot(s)
	if err != nil {
		return nil, err
	}
	d := compile(db, rows, s.Refs)
	if !slices.Equal(d.refs, s.Refs) {
		// The compile keeps at most one reference per entry of s.Refs,
		// so the first difference is at an index of s.Refs.
		i := 0
		for i < len(d.refs) && d.refs[i] == s.Refs[i] {
			i++
		}
		return nil, fmt.Errorf("core: snapshot reference %d (%q) is empty, repeated or not normalized", i, s.Refs[i])
	}
	return d, nil
}

// rowsFromSnapshot checks the snapshot's rows — the table lengths, the
// runes strictly ascending, every sequence at least two runes long and
// the sequences filling SkelSeqs exactly — and returns them.
func rowsFromSnapshot(s *Snapshot) (skelRows, error) {
	if len(s.SkelReps) != len(s.SkelRepRunes) {
		return skelRows{}, fmt.Errorf("core: snapshot skeleton rep table: %d runes, %d reps", len(s.SkelRepRunes), len(s.SkelReps))
	}
	if len(s.SkelSeqLens) != len(s.SkelSeqRunes) {
		return skelRows{}, fmt.Errorf("core: snapshot skeleton seq table: %d runes, %d lengths", len(s.SkelSeqRunes), len(s.SkelSeqLens))
	}
	if !strictlyAscending(s.SkelRepRunes) || !strictlyAscending(s.SkelSeqRunes) {
		return skelRows{}, fmt.Errorf("core: snapshot skeleton tables not strictly ascending")
	}
	off := 0
	for i := range s.SkelSeqRunes {
		l := int(s.SkelSeqLens[i])
		if l < 2 || off+l > len(s.SkelSeqs) {
			return skelRows{}, fmt.Errorf("core: snapshot skeleton seq %d: bad length %d", i, l)
		}
		off += l
	}
	if off != len(s.SkelSeqs) {
		return skelRows{}, fmt.Errorf("core: snapshot skeleton seqs: %d trailing runes", len(s.SkelSeqs)-off)
	}
	return skelRows{
		repRunes: s.SkelRepRunes,
		reps:     s.SkelReps,
		seqRunes: s.SkelSeqRunes,
		seqLens:  s.SkelSeqLens,
		seqs:     s.SkelSeqs,
	}, nil
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
