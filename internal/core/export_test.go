package core

import "repro/internal/punycode"

// Candidates returns label's candidate reference ids twice: as the
// detection hot path finds them, behind the dead-rune gate, and as an
// ungated decode, fold and table probe finds them. dead reports whether
// the label decodes to a rune the gate calls dead.
func (d *Detector) Candidates(label string) (gated, ungated []int32, dead bool) {
	gated, _, _ = probe(d.skel, nil, nil, label)
	runes, err := punycode.ToUnicodeLabelAppend(nil, label, nil)
	if err != nil || len(runes) == 0 {
		return gated, nil, false
	}
	for _, r := range runes {
		dead = dead || !d.skel.live(r)
	}
	return gated, d.skel.refs.lookup(d.skel.appendLabel(nil, runes)), dead
}
