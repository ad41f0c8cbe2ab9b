package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/punycode"
)

// manyToOneFixtures pins the false-negative class this backend closes:
// homographs built from many-to-one confusables ("rn"→"m", "vv"→"w",
// "cl"→"d") that the postings backend PROVABLY cannot represent — they
// change the label's rune length, so no same-length, rune-for-rune
// comparison can pair them with the reference.
var manyToOneFixtures = []struct {
	label string // attacker-registered, pure ASCII
	ref   string
}{
	{"rnicrosoft", "microsoft"},
	{"vvikipedia", "wikipedia"},
	{"close", "dose"}, // "cl" renders as 'd': close ≈ dose
	{"rnozilla", "mozilla"},
	{"vvard", "ward"},
}

func manyToOneDetector(t testing.TB) *Detector {
	refs := make([]string, 0, len(manyToOneFixtures))
	for _, f := range manyToOneFixtures {
		refs = append(refs, f.ref)
	}
	return NewDetector(testDB(t), refs)
}

func TestSkeletonCatchesManyToOne(t *testing.T) {
	d := manyToOneDetector(t)
	for _, f := range manyToOneFixtures {
		if ms := d.DetectDomainBackend(f.label, BackendPostings); len(ms) != 0 {
			t.Errorf("postings unexpectedly matched %q: %v", f.label, ms)
		}
		ms := d.DetectDomainBackend(f.label, BackendSkeleton)
		found := false
		for _, m := range ms {
			if m.Reference == f.ref {
				found = true
				if m.Backend != BackendSkeleton {
					t.Errorf("%q: Backend = %v, want skeleton", f.label, m.Backend)
				}
				if m.Unicode != f.label {
					t.Errorf("%q: Unicode = %q", f.label, m.Unicode)
				}
			}
		}
		if !found {
			t.Errorf("skeleton backend missed %q → %q (got %v)", f.label, f.ref, ms)
		}
	}
}

// The skeleton backend must keep working at the domain level, where the
// posting candidate gate would have rejected the pure-ASCII label before
// detection even ran.
func TestSkeletonDomainLevel(t *testing.T) {
	d := manyToOneDetector(t)
	if ms := d.DetectDomainBackend("rnicrosoft.com", BackendPostings); len(ms) != 0 {
		t.Fatalf("postings matched an ASCII label: %v", ms)
	}
	ms := d.DetectDomainBackend("rnicrosoft.com", BackendSkeleton)
	if len(ms) != 1 || ms[0].Reference != "microsoft" {
		t.Fatalf("skeleton DetectDomainBackend = %v, want microsoft", ms)
	}
	if ms[0].FQDN != "rnicrosoft.com" || ms[0].TLD != "com" {
		t.Fatalf("domain context = %q/%q", ms[0].FQDN, ms[0].TLD)
	}
	if ms[0].Imitated() != "microsoft.com" {
		t.Fatalf("Imitated = %q", ms[0].Imitated())
	}
	bs := d.DetectDomainBytesBackend([]byte("www.rnicrosoft.co.uk"), BackendBoth)
	if len(bs) != 1 || bs[0].TLD != "co.uk" || bs[0].Backend != BackendSkeleton {
		t.Fatalf("bytes both-mode = %+v", bs)
	}
}

// In both-mode a reference found by the two backends carries the union
// mask and keeps the posting match's diffs; a skeleton-only find is
// tagged skeleton.
func TestBothModeUnionTagging(t *testing.T) {
	d := NewDetector(testDB(t), []string{"google", "microsoft"})
	idn := ace(t, "gооgle") // Cyrillic о twice: visible to both backends
	ms := d.DetectDomainBackend(idn, BackendBoth)
	if len(ms) != 1 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Backend != BackendBoth {
		t.Fatalf("Backend = %v, want both", ms[0].Backend)
	}
	if len(ms[0].Diffs) != 2 {
		t.Fatalf("merged match lost its diffs: %v", ms[0].Diffs)
	}
	ms = d.DetectDomainBackend("rnicrosoft", BackendBoth)
	if len(ms) != 1 || ms[0].Backend != BackendSkeleton || len(ms[0].Diffs) != 0 {
		t.Fatalf("skeleton-only both-mode match = %+v", ms)
	}
}

// The reference itself must never match itself through the skeleton map
// (every ref's skeleton trivially hits its own entry).
func TestSkeletonRejectsIdentity(t *testing.T) {
	d := NewDetector(testDB(t), []string{"google", "microsoft"})
	for _, be := range []Backend{BackendSkeleton, BackendBoth} {
		if ms := d.DetectDomainBackend("google", be); len(ms) != 0 {
			t.Errorf("%v: identical label matched: %v", be, ms)
		}
	}
	// But a label that equals another reference's skeleton form still
	// matches that OTHER reference ("rnicrosoft" is not a reference here,
	// "microsoft" is — and "microsoft" skeletonizes with its own 'm').
	if ms := d.DetectDomainBackend("rnicrosoft", BackendSkeleton); len(ms) != 1 {
		t.Errorf("non-identity skeleton match lost: %v", ms)
	}
}

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendPostings, true},
		{"postings", BackendPostings, true},
		{"skeleton", BackendSkeleton, true},
		{"both", BackendBoth, true},
		{"tr39", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseBackend(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, b := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
		back, err := ParseBackend(b.String())
		if err != nil || back != b {
			t.Errorf("round trip %v: %v, %v", b, back, err)
		}
	}
}

// TestDifferentialParity is the fuzzed check of the invariant the
// single index rests on: every match the seed linear scan finds — a
// same-length reference whose every differing rune is a pairwise
// homoglyph — must be among the label's skeleton candidates. The
// skeleton index is built from the same pairwise graph via union-find,
// so Confusable(a,b) ⇒ same component ⇒ equal skeletons; this test pins
// that construction against fold-order and expansion-order regressions
// with a seeded random corpus.
func TestDifferentialParity(t *testing.T) {
	db := testDB(t)
	refs := []string{
		"google", "microsoft", "wikipedia", "amazon", "facebook",
		"close", "ward", "example", "payments", "bank",
	}
	d := NewDetector(db, refs)
	rng := rand.New(rand.NewSource(42))
	labels, matched := 0, 0
	for trial := 0; trial < 3000; trial++ {
		ref := refs[rng.Intn(len(refs))]
		runes := []rune(ref)
		// Substitute 1..3 positions with pairwise homoglyphs.
		subs := 1 + rng.Intn(3)
		changed := false
		for s := 0; s < subs; s++ {
			p := rng.Intn(len(runes))
			hs := db.Homoglyphs(runes[p])
			if len(hs) == 0 {
				continue
			}
			runes[p] = hs[rng.Intn(len(hs))]
			changed = true
		}
		if !changed {
			continue
		}
		labels++
		label := string(runes)
		key := string(d.skel.appendLabel(nil, runes))
		candidates := d.skel.refs.lookup([]byte(key))
		for _, lm := range d.DetectLabelLinear(label) {
			matched++
			found := false
			for _, id := range candidates {
				if d.refs[id] == lm.Reference {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("parity violated: linear scan found %q → %q, not a skeleton candidate (skeleton %q)",
					label, lm.Reference, key)
			}
		}
	}
	if labels < 1000 || matched < 1000 {
		t.Fatalf("fuzz corpus too small: %d substituted labels, %d linear matches", labels, matched)
	}
}

// Snapshot round trip of the skeleton index is byte-for-byte: flatten,
// rebuild, re-flatten must reproduce the identical layout, and the
// rebuilt detector must answer skeleton queries identically.
func TestSkeletonSnapshotRoundTrip(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "microsoft", "wikipedia", "close"})
	s1 := d.Snapshot()
	d2, err := NewDetectorFromSnapshot(loadedView(t, db), s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := d2.Snapshot()

	if seqs := d2.db.FoldRows().SeqRunes; len(s1.Refs) == 0 || len(seqs) == 0 {
		t.Fatalf("skeleton sections empty: %d refs, %d seqs", len(s1.Refs), len(seqs))
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("skeleton snapshot not byte-for-byte across load/re-flatten")
	}

	for _, f := range manyToOneFixtures[:3] {
		a := d.DetectDomainBackend(f.label, BackendBoth)
		b := d2.DetectDomainBackend(f.label, BackendBoth)
		if len(a) != len(b) {
			t.Fatalf("rebuilt detector diverges on %q: %v vs %v", f.label, a, b)
		}
	}
}

// References the compile would not keep must be rejected, not silently
// loaded. The fold rows are the database's, and the database section's
// loader checks them (homoglyph's TestFoldRowsSnapshotValidation).
func TestSkeletonSnapshotValidation(t *testing.T) {
	db := testDB(t)
	pair := NewDetector(db, []string{"google", "paypal"})
	if _, err := NewDetectorFromSnapshot(db, pair.Snapshot()); err != nil {
		t.Fatalf("unedited snapshot rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *Snapshot)
	}{
		// Detection walks a label's candidates without deduplicating,
		// and a reference is indexed under its normalized form, so Refs
		// must be exactly the list the compile keeps.
		{"duplicate reference", func(s *Snapshot) { s.Refs[1] = s.Refs[0] }},
		{"empty reference", func(s *Snapshot) { s.Refs[1] = "" }},
		{"upper-case reference", func(s *Snapshot) { s.Refs[0] = "GOOGLE" }},
		{"decodable ACE reference", func(s *Snapshot) { s.Refs[1] = ace(t, "pаypal") }},
		{"padded reference", func(s *Snapshot) { s.Refs[1] = " paypal " }},
	} {
		s := pair.Snapshot()
		tc.mutate(s)
		if _, err := NewDetectorFromSnapshot(db, s); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// BenchmarkSkeletonLookup and BenchmarkPostingsLookup: the ns/label cost
// of the skeleton and postings backends on the miss path (the zone-scale
// common case) — both one whole-label skeleton probe.
// BenchmarkSkeletonLookupNonASCII is the same miss for an all-Cyrillic
// label, whose every rune folds through the fold table's pages rather
// than its ASCII row; every rune is live, so the label pays the whole
// decode, fold and probe. BenchmarkSkeletonLookupDeadRune is a CJK miss,
// which the dead-rune gate ends at the first code point the decoder
// inserts. CI publishes the four as BENCH_skeleton.json and gates each
// at zero allocations.
func BenchmarkSkeletonLookup(b *testing.B) {
	d := NewDetector(testDB(b), benchRefs())
	fqdn := []byte("xn--ggle-55da.example.com")
	d.DetectDomainBytesBackend(fqdn, BackendSkeleton)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DetectDomainBytesBackend(fqdn, BackendSkeleton)
	}
}

func BenchmarkSkeletonLookupNonASCII(b *testing.B) {
	benchSkeletonMiss(b, "аеросо", true)
}

func BenchmarkSkeletonLookupDeadRune(b *testing.B) {
	benchSkeletonMiss(b, "例え中文", false)
}

// benchSkeletonMiss times the skeleton-backend miss of the ACE form of
// label, after checking that the label misses and that it passes the
// dead-rune gate exactly when live says so.
func benchSkeletonMiss(b *testing.B, label string, live bool) {
	d := NewDetector(testDB(b), benchRefs())
	fqdn := []byte(ace(b, label) + ".example.com")
	if ms := d.DetectDomainBytesBackend(fqdn, BackendSkeleton); len(ms) != 0 {
		b.Fatalf("unexpected match: %v", ms)
	}
	runes, err := punycode.ToUnicodeLabelAppend(nil, ace(b, label), d.skel.keep)
	if (err == nil) != live {
		b.Fatalf("%q: gate err = %v, want live = %v", label, err, live)
	}
	if _, ok := d.skel.appendLive(nil, runes); live && !ok {
		b.Fatalf("%q stops at the dead-rune gate", label)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DetectDomainBytesBackend(fqdn, BackendSkeleton)
	}
}

func BenchmarkPostingsLookup(b *testing.B) {
	d := NewDetector(testDB(b), benchRefs())
	fqdn := []byte("xn--ggle-55da.example.com")
	d.DetectDomainBytesBackend(fqdn, BackendPostings)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DetectDomainBytesBackend(fqdn, BackendPostings)
	}
}

func benchRefs() []string {
	var refs []string
	var buf bytes.Buffer
	for i := 0; i < 1000; i++ {
		buf.Reset()
		buf.WriteString("brand")
		buf.WriteByte(byte('a' + i%26))
		buf.WriteByte(byte('a' + (i/26)%26))
		buf.WriteByte(byte('0' + i%10))
		refs = append(refs, buf.String())
	}
	return refs
}
