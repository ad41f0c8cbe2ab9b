package core

import (
	"fmt"
	"slices"

	"repro/internal/homoglyph"
)

// Snapshot is the serializable form of a built Detector: its reference
// list. Everything else a detector holds is compiled from the list and
// the database: the fold rows are the database view's own (a snapshot
// stores them in its database section), and the reference index costs
// less to compile from the list than to check if it were stored. The
// internal/snapshot codec writes a Snapshot, and NewDetectorFromSnapshot
// compiles one.
type Snapshot struct {
	// Refs is the detector's reference list, normalized and
	// deduplicated, in insertion order.
	Refs []string
}

// Snapshot flattens the detector into its serializable form.
func (d *Detector) Snapshot() *Snapshot {
	return &Snapshot{Refs: append([]string(nil), d.refs...)}
}

// NewDetectorFromSnapshot builds a detector over an already-loaded
// homoglyph database from a snapshot. It is NewDetector's compile over
// the view's fold rows, which a loaded database carries, so a loaded
// detector's index is the one its list compiles to. The db must be the
// one serialized alongside the detector.
//
// A crafted snapshot fails loudly: Refs must be exactly the list the
// compile keeps, so an empty, repeated or un-normalized reference is
// rejected.
func NewDetectorFromSnapshot(db *homoglyph.DB, s *Snapshot) (*Detector, error) {
	d := compile(db, s.Refs)
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
