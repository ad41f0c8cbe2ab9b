package core

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/homoglyph"
)

// Snapshot is the flattened, position-independent form of a built
// Detector: the deduplicated reference list plus the skeleton index laid
// out in contiguous arrays. It exists so the internal/snapshot codec can
// serialize a detector with bulk slice writes and NewDetectorFromSnapshot
// can rebuild one without re-running the union-find and expansion of
// NewDetector — the skeleton maps are stored already compiled.
type Snapshot struct {
	// Refs is the detector's reference list, normalized and
	// deduplicated, in insertion order.
	Refs []string

	// The skeleton index, flattened. The three maps are laid out
	// keys-ascending so identical detectors serialize byte-identically
	// and a load/re-snapshot round trip is exact.

	// SkelRepRunes/SkelReps are the non-identity component-representative
	// pairs, SkelRepRunes ascending.
	SkelRepRunes []rune
	SkelReps     []rune
	// SkelSeqRunes (ascending) key the multi-rune skeletons; entry i's
	// sequence is the next SkelSeqLens[i] runes of SkelSeqs.
	SkelSeqRunes []rune
	SkelSeqLens  []int32
	SkelSeqs     []rune
	// SkelKeys (ascending, byte order) are the reference skeletons; key
	// i's id list is the next SkelListLens[i] entries of SkelListIDs —
	// indexes into Refs, strictly ascending within each list.
	SkelKeys     []string
	SkelListLens []int32
	SkelListIDs  []int32
}

// Snapshot flattens the detector into its serializable form. The layout
// is canonical — every table ascends by key — so identical detectors
// produce identical snapshots.
func (d *Detector) Snapshot() *Snapshot {
	rows := &d.skel.rows
	s := &Snapshot{
		Refs:         append([]string(nil), d.refs...),
		SkelRepRunes: append([]rune(nil), rows.repRunes...),
		SkelReps:     append([]rune(nil), rows.reps...),
		SkelSeqRunes: append([]rune(nil), rows.seqRunes...),
		SkelSeqLens:  append([]int32(nil), rows.seqLens...),
		SkelSeqs:     append([]rune(nil), rows.seqs...),
	}
	keys := make([]string, 0, len(d.skel.refs))
	for k := range d.skel.refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ids := d.skel.refs[k]
		s.SkelKeys = append(s.SkelKeys, k)
		s.SkelListLens = append(s.SkelListLens, int32(len(ids)))
		s.SkelListIDs = append(s.SkelListIDs, ids...)
	}
	return s
}

// NewDetectorFromSnapshot rebuilds a detector over an already-loaded
// homoglyph database. The skeleton rows are the snapshot's own arrays
// and the id lists alias its SkelListIDs array (full-capacity
// subslices), so beyond the key map, the fold table and the reference
// rune arena the load performs no copying; the snapshot must not be
// mutated afterwards. The db must be the one serialized alongside the
// detector — the skeleton rows bake in its homoglyph classes.
//
// Detection walks a label's candidates once per pass without
// deduplicating, so references must be non-empty and unique, and every
// id list strictly ascending — a crafted snapshot violating either
// would yield repeated or reordered matches.
func NewDetectorFromSnapshot(db *homoglyph.DB, s *Snapshot) (*Detector, error) {
	d := &Detector{db: db, refs: append([]string(nil), s.Refs...)}
	d.scratch.New = func() any { return &scratch{} }
	seen := make(map[string]bool, len(d.refs))
	for i, ref := range d.refs {
		if ref == "" {
			return nil, fmt.Errorf("core: snapshot reference %d is empty", i)
		}
		if seen[ref] {
			return nil, fmt.Errorf("core: snapshot reference %q is duplicated", ref)
		}
		seen[ref] = true
	}
	d.buildArena()
	skel, err := skelFromSnapshot(s, d)
	if err != nil {
		return nil, err
	}
	d.skel = skel
	return d, nil
}

// skelFromSnapshot rebuilds d's skeleton index verbatim from its
// flattened form — no union-find, no re-expansion — validating it so a
// crafted snapshot fails loudly: every count and reference id, the
// tables' ascending order, and the key lists, which must hold every
// reference exactly once, under its own skeleton as the loaded tables
// compute it.
func skelFromSnapshot(s *Snapshot, d *Detector) (*skelIndex, error) {
	if len(s.SkelReps) != len(s.SkelRepRunes) {
		return nil, fmt.Errorf("core: snapshot skeleton rep table: %d runes, %d reps", len(s.SkelRepRunes), len(s.SkelReps))
	}
	if len(s.SkelSeqLens) != len(s.SkelSeqRunes) {
		return nil, fmt.Errorf("core: snapshot skeleton seq table: %d runes, %d lengths", len(s.SkelSeqRunes), len(s.SkelSeqLens))
	}
	if len(s.SkelListLens) != len(s.SkelKeys) {
		return nil, fmt.Errorf("core: snapshot skeleton ref index: %d keys, %d lengths", len(s.SkelKeys), len(s.SkelListLens))
	}
	if !strictlyAscending(s.SkelRepRunes) || !strictlyAscending(s.SkelSeqRunes) || !strictlyAscending(s.SkelKeys) {
		return nil, fmt.Errorf("core: snapshot skeleton tables not strictly ascending")
	}
	off := 0
	for i := range s.SkelSeqRunes {
		l := int(s.SkelSeqLens[i])
		if l < 2 || off+l > len(s.SkelSeqs) {
			return nil, fmt.Errorf("core: snapshot skeleton seq %d: bad length %d", i, l)
		}
		off += l
	}
	if off != len(s.SkelSeqs) {
		return nil, fmt.Errorf("core: snapshot skeleton seqs: %d trailing runes", len(s.SkelSeqs)-off)
	}
	x := &skelIndex{
		rows: skelRows{
			repRunes: s.SkelRepRunes,
			reps:     s.SkelReps,
			seqRunes: s.SkelSeqRunes,
			seqLens:  s.SkelSeqLens,
			seqs:     s.SkelSeqs,
		},
		refs: make(map[string][]int32, len(s.SkelKeys)),
	}
	x.fold = newFoldTable(&x.rows)
	numRefs := len(d.refs)
	var skel []byte
	idOff := 0
	var keyRunes runeSet
	// The keys are distinct and each list ascends strictly, so a
	// reference listed twice sits under two keys, and only one of them
	// can be its skeleton. With every key checked against its ids' own
	// skeletons, as many ids as references list each one exactly once.
	for i, k := range s.SkelKeys {
		keyRunes.addString(k)
		l := int(s.SkelListLens[i])
		if l <= 0 || idOff+l > len(s.SkelListIDs) {
			return nil, fmt.Errorf("core: snapshot skeleton key %d: bad id list length %d", i, l)
		}
		prev := int32(-1)
		for _, id := range s.SkelListIDs[idOff : idOff+l] {
			if id < 0 || int(id) >= numRefs {
				return nil, fmt.Errorf("core: snapshot skeleton key %d: reference id %d out of range", i, id)
			}
			if id <= prev {
				return nil, fmt.Errorf("core: snapshot skeleton key %d: reference ids not strictly ascending", i)
			}
			prev = id
			if skel = x.appendLabel(skel[:0], d.refRunes(id)); string(skel) != k {
				return nil, fmt.Errorf("core: snapshot skeleton key %d: reference %d has skeleton %q, not %q", i, id, skel, k)
			}
		}
		x.refs[k] = s.SkelListIDs[idOff : idOff+l : idOff+l]
		idOff += l
	}
	if idOff != len(s.SkelListIDs) {
		return nil, fmt.Errorf("core: snapshot skeleton ids: %d trailing entries", len(s.SkelListIDs)-idOff)
	}
	if idOff != numRefs {
		return nil, fmt.Errorf("core: snapshot skeleton index lists %d ids for %d references", idOff, numRefs)
	}
	x.compileGate(keyRunes)
	return x, nil
}

// strictlyAscending reports whether s ascends with no repeats.
func strictlyAscending[T cmp.Ordered](s []T) bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}
