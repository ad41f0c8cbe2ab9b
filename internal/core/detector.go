// Package core implements the ShamFinder detection engine — Algorithm 1 of
// the paper: given a list of reference domain names and a set of extracted
// IDNs, find the IDNs that are homographs of a reference, pinpointing the
// differential characters so downstream countermeasures (blocklists, the
// Figure 12 warning UI) can explain exactly which character was substituted.
//
// The engine has one index. NewDetector maps every reference's TR39
// skeleton — its label with each rune folded to the representative of
// its homoglyph class — to the references sharing it. Any character the
// pairwise database calls confusable folds to the same representative,
// so one hash probe of an incoming label's skeleton yields every
// reference it could imitate. Candidates of the label's rune length are
// then verified character by character (Algorithm 1's inner loop), which
// recovers the substituted characters; the rest are the many-to-one
// confusions only the skeleton sees. DetectLabelLinear keeps the seed
// linear scan as the oracle for tests and the §4.2 baseline.
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/domain"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
)

// CharDiff records one substituted character in a detected homograph.
type CharDiff struct {
	Pos    int              // rune index within the label
	Got    rune             // the character in the IDN
	Want   rune             // the character in the reference
	Source homoglyph.Source // which database vouched for the pair
}

// String renders the diff as "օ≈o@1 (SimChar)".
func (d CharDiff) String() string {
	return fmt.Sprintf("%c≈%c@%d (%s)", d.Got, d.Want, d.Pos, d.Source)
}

// Match is one detected homograph: the matched label (in both forms),
// the reference it imitates, and the domain context it was found in —
// so a report can say "xn--ggle-55da.net imitates google.net" instead
// of hardcoding one TLD.
//
// The detector materializes a matched name as one string: FQDN, IDN and
// TLD are substrings of it, and Unicode is its tail (a second matching
// label of the same name carries its own Unicode string). The strings,
// the Diffs and a call's result slice are carved from append-only slabs
// in the detector's pooled scratch, which are never rewritten. Keeping
// a match keeps alive the slabs it was carved from, each about 1 KiB of
// text or 32 diffs; keeping a result slice also keeps its 2 KiB slab of
// 18 matches.
type Match struct {
	IDN       string // ASCII (xn--) form of the matched label, as seen in the zone
	Unicode   string // decoded label
	Reference string // targeted reference label (registrable label, suffix removed)
	FQDN      string // full domain the label was matched in (equals IDN for bare-label input)
	TLD       string // public suffix of FQDN ("com", "co.uk", "xn--p1ai"); "" for bare labels
	Backend   Backend
	Diffs     []CharDiff // per-character substitutions of a verified match (postings or both); nil for skeleton-only
}

// Imitated returns the domain the match imitates: the reference label
// under the matched FQDN's own public suffix ("google.net" for a
// homograph registered in the .net zone). A bare-label match returns
// just the reference.
func (m Match) Imitated() string {
	if m.TLD == "" {
		return m.Reference
	}
	return m.Reference + "." + m.TLD
}

// scratch holds the pooled working memory of a label with candidates,
// and the slabs every hit's output is carved from. A label probes on
// the stack (see detectLabelIn) and takes scratch from the pool only
// once it has candidates, so a label that matches nothing neither
// touches the pool nor allocates; a hit allocates only when it fills a
// slab, or when its label's UTF-8 form outgrows utf8Buf. The one
// exception is a label too long for the stack buffers, which decodes
// into longRunes and longSkel.
//
// The slabs are append-only. Every piece is carved with cap == len, and
// a full slab is replaced by a new one, never reset or rewritten, so
// what a call returns stays immutable and independent of later calls.
type scratch struct {
	diffs []CharDiff // a candidate's diffs, carved out only when it verifies

	longRunes []rune // a long label's runes
	longSkel  []byte // a long label's skeleton
	utf8Buf   []byte // a matched label's UTF-8 form, staged for the text slab

	text      strings.Builder // matched names and their labels' Unicode forms
	diffSlab  []CharDiff      // verified matches' Diffs
	matchSlab []Match         // a call's first match, as a cap-1 result slice
}

// scratchFor returns *sc, taking it from the pool first if it is nil.
// The caller puts it back once *sc is set.
func (d *Detector) scratchFor(sc **scratch) *scratch {
	if *sc == nil {
		*sc = d.scratch.Get().(*scratch)
	}
	return *sc
}

// Slab sizes: a new slab holds at least this many bytes of match text,
// diffs, or matches.
const (
	textSlab  = 1 << 10
	diffSlab  = 32
	matchSlab = 16
)

// carveText writes prefix and the UTF-8 form of runes to the text slab
// and returns them as one string. The runes are encoded once, into
// utf8Buf, so the string's exact length is known before anything is
// written: it is reserved up front and the string never straddles two
// slabs. Staging the encoding costs less than counting the runes'
// lengths and then writing them one WriteRune call at a time. The runes
// are a decoded label's, all valid: the decoder rejects surrogates and
// values past utf8.MaxRune, and a raw label's invalid bytes decode to
// utf8.RuneError.
func carveText[S punycode.ByteSeq](sc *scratch, prefix S, runes []rune) string {
	enc := sc.utf8Buf[:0]
	for _, r := range runes {
		enc = utf8.AppendRune(enc, r) // inlined for an ASCII rune
	}
	sc.utf8Buf = enc
	n := len(prefix) + len(enc)
	b := &sc.text
	if b.Cap()-b.Len() < n {
		b.Reset() // strings already returned keep the old slab
		b.Grow(max(textSlab, n))
	}
	start := b.Len()
	switch p := any(prefix).(type) {
	case string:
		b.WriteString(p)
	case []byte:
		b.Write(p)
	}
	b.Write(enc)
	return b.String()[start:]
}

// carveDiffs copies the verified candidate's diffs into the diff slab.
func (sc *scratch) carveDiffs() []CharDiff {
	n := len(sc.diffs)
	if cap(sc.diffSlab)-len(sc.diffSlab) < n {
		sc.diffSlab = make([]CharDiff, 0, max(diffSlab, n))
	}
	start := len(sc.diffSlab)
	sc.diffSlab = append(sc.diffSlab, sc.diffs...)
	end := len(sc.diffSlab)
	return sc.diffSlab[start:end:end]
}

// nextMatch extends out by one zero match. A call's first match (out
// == nil) takes a cap-1 result slice from the match slab; a later one
// grows out as append does.
func (sc *scratch) nextMatch(out []Match) []Match {
	if out != nil {
		return append(out, Match{})
	}
	if len(sc.matchSlab) == cap(sc.matchSlab) {
		// Grow, unlike make, rounds the capacity up to fill the
		// allocator's size class: 18 matches in 2 KiB on 64-bit
		// platforms, where 16 were asked for.
		sc.matchSlab = slices.Grow([]Match(nil), matchSlab)
	}
	n := len(sc.matchSlab)
	sc.matchSlab = sc.matchSlab[:n+1]
	return sc.matchSlab[n : n+1 : n+1]
}

// Detector holds the reference list, its skeleton index, and the
// homoglyph database, ready to scan IDNs. A Detector is immutable after
// construction and safe for concurrent use.
type Detector struct {
	db   *homoglyph.DB
	refs []string
	// arena holds every reference's runes back to back; reference id i
	// occupies arena[offs[i]:offs[i+1]].
	arena   []rune
	offs    []int32
	skel    *skelIndex
	scratch sync.Pool
}

// NewDetector builds a detector over reference labels (TLD part removed,
// ASCII form). Duplicate references are collapsed. Construction compiles
// the skeleton index; reuse the detector across scans.
func NewDetector(db *homoglyph.DB, references []string) *Detector {
	return compile(db, references)
}

// compile builds a detector over references from the fold rows of db's
// view, which the view computes once or a snapshot loads: the fold
// table, then the reference index, then the dead-rune gate.
func compile(db *homoglyph.DB, references []string) *Detector {
	x := &skelIndex{fold: newFoldTable(db.FoldRows())}
	d := &Detector{db: db, skel: x}
	d.scratch.New = func() any { return &scratch{} }
	x.compileGate(x.indexRefs(d, references))
	return d
}

// normalizeRef returns the form a reference is indexed under, "" for
// one that indexes nothing.
func normalizeRef(ref string) string {
	// punycode.Fold is the same normalization the decode path applies
	// to incoming labels, so an uppercase (even non-ASCII) reference
	// and its lowercase spelling index identically.
	ref = punycode.FoldString(strings.TrimSpace(ref))
	// An ACE reference ("xn--bcher-kva") must index on its decoded
	// runes — incoming labels are compared in Unicode form, so the
	// literal ASCII spelling could never match any homograph. A label
	// that fails to decode stays literal (inert, as before).
	if punycode.IsACE(ref) {
		if uni, err := punycode.ToUnicodeLabel(ref); err == nil {
			ref = uni
		}
	}
	return ref
}

// refRunes returns reference id's runes, a read-only view of the arena.
func (d *Detector) refRunes(id int32) []rune {
	lo, hi := d.offs[id], d.offs[id+1]
	return d.arena[lo:hi:hi]
}

// NumReferences returns the deduplicated reference count without
// copying the list — the serving layer's health and metrics endpoints
// read it on every scrape.
func (d *Detector) NumReferences() int { return len(d.refs) }

// References returns the deduplicated reference labels.
func (d *Detector) References() []string {
	out := make([]string, len(d.refs))
	copy(out, d.refs)
	return out
}

// matchAgainst implements the inner loop of Algorithm 1 for one
// (reference, IDN) pair of equal rune length. The diffs collect in
// scratch and are carved into the diff slab once, on success, so a
// candidate that fails verification allocates nothing.
func (d *Detector) matchAgainst(sc *scratch, ref []rune, idn []rune) ([]CharDiff, bool) {
	sc.diffs = sc.diffs[:0]
	for i := range ref {
		if ref[i] == idn[i] {
			continue
		}
		ok, src := d.db.Confusable(idn[i], ref[i])
		if !ok {
			return nil, false
		}
		sc.diffs = append(sc.diffs, CharDiff{Pos: i, Got: idn[i], Want: ref[i], Source: src})
	}
	// A homograph must differ somewhere; an identical string is the
	// reference itself, not an attack.
	if len(sc.diffs) == 0 {
		return nil, false
	}
	return sc.carveDiffs(), true
}

// detectLabel scans idnLabel as one label, dots and all — Revert's
// lookup, which must not split its input.
func detectLabel(d *Detector, idnLabel string, be Backend) []Match {
	var sc *scratch
	var fq string
	out := detectLabelIn(d, &sc, nil, &fq, idnLabel, 0, len(idnLabel), be)
	if sc != nil {
		d.scratch.Put(sc)
	}
	return out
}

// DetectDomainBackend checks a name under backend be and returns its
// matches: a dotted FQDN on any TLD, any label count, trailing root dot
// tolerated, or a bare label (a dotless name). Each candidate label is
// scanned against the reference index; under the posting backend a
// candidate is an ACE "xn--" label or one carrying non-ASCII bytes
// (pure-ASCII labels cannot be one-to-one homographs), and with the
// skeleton backend every non-empty label is one, because a pure-ASCII
// label ("rnicrosoft") can be a many-to-one homograph. Only labels left
// of the public suffix are scanned: the registrable label and any
// subdomains are attacker-chosen, the suffix is the zone's own (and
// skipping it keeps ACE TLDs like xn--p1ai from costing a punycode
// decode per line). Matches carry the FQDN and its public suffix, so
// reports can name the imitated domain on the zone it was actually
// found in. Safe for concurrent use.
func (d *Detector) DetectDomainBackend(fqdn string, be Backend) []Match {
	return detectDomain(d, nil, fqdn, be)
}

// DetectDomainBytesBackend is DetectDomainBackend over a reused line
// buffer: nothing is retained from fqdn, and a name that matches
// nothing allocates nothing, under every backend, so a zone feeder can
// recycle one buffer per in-flight line. Strings (the match's FQDN, IDN
// and Unicode forms) are materialized only when a label matches.
//
//shamlint:noalloc
func (d *Detector) DetectDomainBytesBackend(fqdn []byte, be Backend) []Match {
	return detectDomain(d, nil, fqdn, be)
}

// detectDomain is the domain-level hot path, compiled for both
// spellings; it appends the name's matches to out, so a batch worker
// can pass its own slice down. A cheap gate runs first:
// the scannable labels all sit left of the final dot (the suffix is
// never scanned), so a name with no candidate label before its last
// dot — the shape of almost every line in an IDN-TLD zone such as
// .xn--p1ai, where the ACE TLD alone gets plain lines past the feeder's
// xn-- test — rejects on one short byte scan. The candidate labels
// left of the public suffix of a name that passes are scanned in one
// walk, the pooled scratch is taken only by the first label that has
// candidates, and the matches' TLD is cut from the name only once one
// exists.
func detectDomain[S punycode.ByteSeq](d *Detector, out []Match, fqdn S, be Backend) []Match {
	end := len(fqdn)
	if end > 0 && fqdn[end-1] == '.' {
		end-- // trailing root dot
	}
	trimmed := fqdn[:end]
	firstDot := -1
	for i := 0; i < end; i++ {
		if trimmed[i] == '.' {
			firstDot = i
			break
		}
	}
	// fq is the name's copy, set by its first match; sc is taken from
	// the pool by the first label with candidates.
	var fq string
	var sc *scratch
	if firstDot < 0 { // bare label; a root-dot spelling keeps its dot in FQDN
		if candidateLabelFor(trimmed, be) {
			out = detectLabelIn(d, &sc, out, &fq, fqdn, 0, end, be)
		}
		if sc != nil {
			d.scratch.Put(sc)
		}
		return out
	}

	// One fused walk scans every scannable label. Scannability reduces
	// to "not the final label": the first label is always scannable (the
	// public suffix never swallows the whole name), the final label of a
	// dotted name never is, and an interior label could only be excluded
	// as the second half of a "co.uk"-style suffix — whose second-level
	// entries are all plain ASCII, never candidates (an invariant the
	// domain package pins with a test). A line with no candidate label
	// costs one byte scan and nothing else — the shape of almost every
	// line an IDN TLD's xn-- sneaks past the feeder gate.
	first := len(out)
	if candidateLabelFor(trimmed[:firstDot], be) {
		out = detectLabelIn(d, &sc, out, &fq, fqdn, 0, firstDot, be)
	}
	secondLastStart, lastStart := 0, firstDot+1
	start := firstDot + 1
	for i := start; i < end; i++ {
		if trimmed[i] != '.' {
			continue
		}
		if candidateLabelFor(trimmed[start:i], be) {
			out = detectLabelIn(d, &sc, out, &fq, fqdn, start, i, be)
		}
		secondLastStart, lastStart = lastStart, i+1
		start = i + 1
	}
	if sc != nil {
		d.scratch.Put(sc)
	}
	if len(out) == first {
		return out
	}
	// Attach the public suffix, deciding its width only now that a
	// match exists.
	tldStart := lastStart
	if lastStart > firstDot+1 && // three labels or more
		domain.TwoLabelSuffix(trimmed, domain.Span{Start: secondLastStart, End: lastStart - 1}, domain.Span{Start: lastStart, End: end}) {
		tldStart = secondLastStart
	}
	tld := fq[tldStart:end]
	for i := first; i < len(out); i++ {
		out[i].TLD = tld
	}
	return out
}

// candidateLabel reports whether a label can be a homograph under the
// posting backend: an ACE label decodes to non-ASCII by construction,
// and a raw label must carry a non-ASCII byte (ASCII-to-ASCII pairs are
// never homoglyphs — the soundness property the engine's tests pin).
func candidateLabel[S punycode.ByteSeq](label S) bool {
	if punycode.HasACEPrefix(label) {
		return true
	}
	for i := 0; i < len(label); i++ {
		if label[i] >= 0x80 {
			return true
		}
	}
	return false
}

// candidateLabelFor is the backend-aware candidate gate. The skeleton
// backend must see every non-empty label: a many-to-one homograph
// ("rnicrosoft") is pure ASCII, exactly the shape the posting gate
// rejects as impossible for itself.
func candidateLabelFor[S punycode.ByteSeq](label S, be Backend) bool {
	if be&BackendSkeleton != 0 {
		return len(label) > 0
	}
	return candidateLabel(label)
}

// Probe's stack buffers: stackRunes runes hold the decode of any label
// of up to stackRunes bytes (an ACE label of at most 63 bytes decodes to
// at most 59 runes, a raw one to no more runes than bytes), and
// stackSkel bytes hold its skeleton at up to utf8.UTFMax bytes a rune.
// A fold table whose skeletons grow further per rune lowers the label
// length its detector probes on the stack (foldTable.stackLen).
const (
	stackRunes = 64
	stackSkel  = stackRunes * utf8.UTFMax
)

// detectLabelIn is the shared per-label hot path, compiled for both
// spellings. It scans the label name[lo:hi] and appends its matches to
// out. It decodes the label once and answers every backend from one
// skeleton probe, which yields the candidate references in ascending id
// order (see verifyLabel).
//
// The probe runs on stack buffers, and *sc, the pooled scratch, is
// taken from the pool only once the label has candidates, so the miss
// path — decode and skeletonize behind the dead-rune gate (see probe),
// at most one table probe, empty list — allocates nothing and touches
// no pool. A label longer than the stack buffers can provably hold
// takes the scratch first and probes in its buffers (detectLongLabel).
//
// An ACE label longer than the DNS label limit is no candidate: no zone
// can hold it, and its decode time grows with the square of its length
// (every decoded code point is an insert), so an oversized label in a
// request body would otherwise buy quadratic work. Raw UTF-8 labels
// decode in linear time and are not capped.
func detectLabelIn[S punycode.ByteSeq](d *Detector, sc **scratch, out []Match, fq *string, name S, lo, hi int, be Backend) []Match {
	idnLabel := name[lo:hi]
	if len(idnLabel) > punycode.MaxLabelLength && punycode.HasACEPrefix(idnLabel) {
		return out
	}
	if len(idnLabel) > d.skel.fold.stackLen {
		return detectLongLabel(d, d.scratchFor(sc), out, fq, name, lo, hi, be)
	}
	var runeBuf [stackRunes]rune
	var skelBuf [stackSkel]byte
	ids, runes, _ := probe(d.skel, runeBuf[:0], skelBuf[:0], idnLabel)
	if len(ids) == 0 {
		return out
	}
	return verifyLabel(d, d.scratchFor(sc), out, fq, name, lo, hi, be, ids, runes)
}

// detectLongLabel is detectLabelIn for a label too long for the stack
// buffers: it probes in sc's long-label buffers, which keep their
// capacity for the next long label. It is a function of its own because
// storing probe's results in sc makes them escape, and in detectLabelIn
// that would move the stack buffers to the heap.
func detectLongLabel[S punycode.ByteSeq](d *Detector, sc *scratch, out []Match, fq *string, name S, lo, hi int, be Backend) []Match {
	ids, runes, skel := probe(d.skel, sc.longRunes[:0], sc.longSkel[:0], name[lo:hi])
	sc.longRunes, sc.longSkel = runes, skel
	if len(ids) == 0 {
		return out
	}
	return verifyLabel(d, sc, out, fq, name, lo, hi, be, ids, runes)
}

// verifyLabel appends the matches of the label name[lo:hi], which
// decodes to runes and whose skeleton probe found the candidates ids.
// Pass 1 runs Algorithm 1's pairwise check on the candidates whose rune
// length equals the label's: each verified candidate is a postings
// match with its Diffs, tagged both when the skeleton backend is also
// selected. Pass 2, for the skeleton backend, appends the remaining
// non-identical candidates.
//
// The label's first match materializes its strings (see labelMatch) and
// the label's later matches share them. fq holds the name's copy once
// any of its labels has matched, "" before.
func verifyLabel[S punycode.ByteSeq](d *Detector, sc *scratch, out []Match, fq *string, name S, lo, hi int, be Backend, ids []int32, runes []rune) []Match {
	labelStart := len(out)
	if be&BackendPostings != 0 {
		for _, id := range ids {
			ref := d.refRunes(id)
			if len(ref) != len(runes) {
				continue
			}
			if diffs, ok := d.matchAgainst(sc, ref, runes); ok {
				out = labelMatch(sc, out, labelStart, fq, name, lo, hi, runes)
				m := &out[len(out)-1]
				m.Reference, m.Backend, m.Diffs = d.refs[id], be&BackendBoth, diffs
			}
		}
	}
	if be&BackendSkeleton != 0 {
		verified, k := len(out), labelStart
		for _, id := range ids {
			ref := d.refs[id]
			// Verified matches sit in id order ahead of this pass, and
			// references are unique, so one cursor skips them.
			if k < verified && out[k].Reference == ref {
				k++
				continue
			}
			// An identical label is the reference itself, not a
			// homograph — the skeleton-side twin of matchAgainst's
			// zero-diff rejection.
			if runesEqualString(runes, ref) {
				continue
			}
			out = labelMatch(sc, out, labelStart, fq, name, lo, hi, runes)
			m := &out[len(out)-1]
			m.Reference, m.Backend = ref, BackendSkeleton
		}
	}
	return out
}

// probe decodes label, folded, onto runes and its skeleton onto skel,
// and returns its candidate reference ids, in ascending order, or nil
// on a miss, with the extended buffers. The dead-rune gate ends a miss
// early: the decoder stops at the first dead code point it inserts, and
// the fold at the first dead rune of the rest, before any table probe.
func probe[S punycode.ByteSeq](x *skelIndex, runes []rune, skel []byte, label S) ([]int32, []rune, []byte) {
	runes, err := punycode.ToUnicodeLabelAppend(runes, label, x.keep)
	if err != nil || len(runes) == 0 {
		return nil, runes, skel
	}
	skel, live := x.appendLive(skel, runes)
	if !live {
		return nil, runes, skel
	}
	return x.refs.lookup(skel), runes, skel
}

// labelMatch appends a match of the label name[lo:hi], which decodes
// to runes, to out and fills in the label's forms; the caller sets the
// rest in place. The label's matches start at out[labelStart]. Its
// first match carves the forms into the text slab: the name's first
// matched label writes the name and the label's UTF-8 Unicode form as
// one string and keeps the name part in *fq, so FQDN and IDN are
// substrings of it and Unicode is its tail; a later label of the same
// name writes only its own Unicode form. The label's later matches
// share the first one's strings.
func labelMatch[S punycode.ByteSeq](sc *scratch, out []Match, labelStart int, fq *string, name S, lo, hi int, runes []rune) []Match {
	out = sc.nextMatch(out)
	m := &out[len(out)-1]
	if len(out)-1 > labelStart {
		first := &out[labelStart]
		m.IDN, m.Unicode, m.FQDN = first.IDN, first.Unicode, first.FQDN
		return out
	}
	if *fq == "" {
		s := carveText(sc, name, runes)
		*fq, m.Unicode = s[:len(name)], s[len(name):]
	} else {
		m.Unicode = carveText(sc, "", runes)
	}
	m.IDN, m.FQDN = (*fq)[lo:hi], *fq
	return out
}

// DetectLabelLinear is the seed engine: a linear scan over every
// same-length reference. It is the oracle the skeleton-derived path is
// property-tested against, and the "before" side of the §4.2 timing.
func (d *Detector) DetectLabelLinear(idnLabel string) []Match {
	uni, err := punycode.ToUnicodeLabel(idnLabel)
	if err != nil {
		return nil
	}
	runes := []rune(uni)
	var sc scratch
	var out []Match
	for id, label := range d.refs {
		ref := d.refRunes(int32(id))
		if len(ref) != len(runes) {
			continue
		}
		if diffs, ok := d.matchAgainst(&sc, ref, runes); ok {
			out = append(out, Match{
				IDN:       idnLabel,
				Unicode:   uni,
				Reference: label,
				FQDN:      idnLabel,
				Backend:   BackendPostings,
				Diffs:     diffs,
			})
		}
	}
	return out
}

// DB exposes the detector's homoglyph database.
func (d *Detector) DB() *homoglyph.DB { return d.db }
