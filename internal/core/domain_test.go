package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/punycode"
)

// TestDetectDomainMultiTLD: the bugfix workload — homographs registered
// under .net, a multi-label suffix, and an ACE/IDN TLD must all be
// found, with the match carrying the FQDN and its actual suffix.
func TestDetectDomainMultiTLD(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "amazon"})
	g := ace(t, "gооgle") // Cyrillic о ×2
	a := ace(t, "amаzon") // Cyrillic а

	cases := []struct {
		fqdn, ref, tld, imitated string
	}{
		{g + ".com", "google", "com", "google.com"},
		{g + ".net", "google", "net", "google.net"},
		{g + ".xn--p1ai", "google", "xn--p1ai", "google.xn--p1ai"},
		{a + ".co.uk", "amazon", "co.uk", "amazon.co.uk"},
		{"www." + g + ".com", "google", "com", "google.com"},
		{g, "google", "", "google"}, // bare label still works
	}
	for _, c := range cases {
		ms := d.DetectDomainBackend(c.fqdn, BackendPostings)
		if len(ms) != 1 {
			t.Errorf("DetectDomainBackend(%q) = %v, want 1 match", c.fqdn, ms)
			continue
		}
		m := ms[0]
		if m.Reference != c.ref || m.FQDN != c.fqdn || m.TLD != c.tld || m.Imitated() != c.imitated {
			t.Errorf("DetectDomainBackend(%q) = {ref %q fqdn %q tld %q imitated %q}, want {%q %q %q %q}",
				c.fqdn, m.Reference, m.FQDN, m.TLD, m.Imitated(), c.ref, c.fqdn, c.tld, c.imitated)
		}
		// The byte path must agree exactly.
		bs := d.DetectDomainBytesBackend([]byte(c.fqdn), BackendPostings)
		if !reflect.DeepEqual(ms, bs) {
			t.Errorf("DetectDomainBytesBackend(%q) diverges: %+v vs %+v", c.fqdn, bs, ms)
		}
	}
}

// TestDetectDomainNonFinalIDNLabel: the IDN may sit in a subdomain
// label ("xn--ggle-55da.mail.example.net" shapes); every candidate label
// is scanned, and the context still reports the whole FQDN.
func TestDetectDomainNonFinalIDNLabel(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	g := ace(t, "gооgle")
	fqdn := g + ".mail.example.net"
	ms := d.DetectDomainBackend(fqdn, BackendPostings)
	if len(ms) != 1 {
		t.Fatalf("DetectDomainBackend(%q) = %v, want 1 match", fqdn, ms)
	}
	if ms[0].FQDN != fqdn || ms[0].TLD != "net" || ms[0].IDN != g {
		t.Fatalf("match context = %+v", ms[0])
	}
}

// TestDetectDomainMisses: pure-ASCII domains, empty labels, the bare
// root, and suffix-only names must produce nothing (and not panic).
func TestDetectDomainMisses(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "com", "con"})
	for _, fqdn := range []string{
		"", ".", "google.com", "plain.net", "a..b", "co.uk",
		"xn--!!!.com", // malformed ACE label rejects cleanly
		"www.google.com.",
	} {
		if ms := d.DetectDomainBackend(fqdn, BackendPostings); len(ms) != 0 {
			t.Errorf("DetectDomainBackend(%q) = %v, want none", fqdn, ms)
		}
	}
}

// TestDetectDomainSuffixNotScanned pins the scan boundary: labels
// inside the public suffix are the zone's own, not attacker-chosen, so
// an ACE "TLD" that happens to decode near a reference is not a match
// (and real ACE TLDs such as xn--p1ai cost no decode per line).
func TestDetectDomainSuffixNotScanned(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	g := ace(t, "gооgle")
	if ms := d.DetectDomainBackend("foo."+g, BackendPostings); len(ms) != 0 {
		t.Fatalf("suffix-position label matched: %+v", ms)
	}
	// The same label in registrable position matches, of course.
	if ms := d.DetectDomainBackend(g+".foo", BackendPostings); len(ms) != 1 {
		t.Fatalf("registrable-position label missed: %+v", ms)
	}
}

// TestDetectDomainUnicodeForm: display-form (non-ACE) IDN domains are
// scanned too — the label carrying non-ASCII bytes is the candidate.
func TestDetectDomainUnicodeForm(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	ms := d.DetectDomainBackend("gооgle.co.uk", BackendPostings) // Cyrillic о ×2, raw Unicode
	if len(ms) != 1 || ms[0].TLD != "co.uk" || ms[0].Imitated() != "google.co.uk" {
		t.Fatalf("unicode-form domain: %+v", ms)
	}
}

// TestDetectDomainTrailingRootDot: the zone-file spelling with the root
// dot matches identically, with the FQDN reported as given.
func TestDetectDomainTrailingRootDot(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	g := ace(t, "gооgle")
	ms := d.DetectDomainBackend(g+".net.", BackendPostings)
	if len(ms) != 1 || ms[0].TLD != "net" || ms[0].FQDN != g+".net." {
		t.Fatalf("trailing-dot domain: %+v", ms)
	}
}

// TestUppercaseNonASCIIReference: the pinned normalization contract —
// a reference given in uppercase (including non-ASCII uppercase) builds
// the identical detector as its lowercase spelling, and an ACE label
// whose encoder kept uppercase non-ASCII still matches, because both
// sides fold through punycode.Fold.
func TestUppercaseNonASCIIReference(t *testing.T) {
	db := testDB(t)
	upper := NewDetector(db, []string{"BÜCHER"})
	lower := NewDetector(db, []string{"bücher"})
	if !reflect.DeepEqual(upper.References(), lower.References()) {
		t.Fatalf("references diverge: %v vs %v", upper.References(), lower.References())
	}

	homograph := "büchér" // é for e, a SimChar twin
	aceLower := ace(t, homograph)
	um, lm := upper.DetectDomainBackend(aceLower, BackendPostings), lower.DetectDomainBackend(aceLower, BackendPostings)
	if !reflect.DeepEqual(um, lm) || len(um) != 1 || um[0].Reference != "bücher" {
		t.Fatalf("uppercase-ref detector diverges: %+v vs %+v", um, lm)
	}

	// Encode the homograph WITHOUT pre-folding, as a hostile registrant
	// could: the decode path must fold it back onto the reference.
	enc, err := punycode.Encode("BÜCHÉR")
	if err != nil {
		t.Fatal(err)
	}
	aceUpper := punycode.ACEPrefix + enc
	if ms := upper.DetectDomainBackend(aceUpper, BackendPostings); len(ms) != 1 || ms[0].Reference != "bücher" {
		t.Fatalf("uppercase-encoded label missed: %+v", ms)
	}
}

// TestACEReferenceIndexesDecoded: a reference given in ACE form
// ("xn--bcher-kva", as reflist.Load now emits for IDN brands like
// xn--80ak6aa92e.xn--p1ai) must index on its decoded runes — the
// literal ASCII spelling could never match a homograph, silently
// no-op'ing IDN brand protection.
func TestACEReferenceIndexesDecoded(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{ace(t, "bücher")}) // "xn--bcher-kva"
	if refs := d.References(); len(refs) != 1 || refs[0] != "bücher" {
		t.Fatalf("References() = %v, want [bücher]", refs)
	}
	homograph := ace(t, "büchér") // é for e, a SimChar twin
	ms := d.DetectDomainBackend(homograph+".xn--p1ai", BackendPostings)
	if len(ms) != 1 || ms[0].Reference != "bücher" || ms[0].Imitated() != "bücher.xn--p1ai" {
		t.Fatalf("ACE-reference detection = %+v", ms)
	}
	// The decoded and ACE spellings of the same brand collapse to one
	// reference.
	both := NewDetector(db, []string{"bücher", ace(t, "bücher"), "BÜCHER"})
	if refs := both.References(); len(refs) != 1 {
		t.Fatalf("duplicate spellings not collapsed: %v", refs)
	}
}

// TestDetectDomainStreamParity: DetectLines over full FQDNs equals the
// batch API match-for-match.
func TestDetectDomainStreamParity(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, indexRefs)
	g := ace(t, "gооgle")
	domains := []string{
		g + ".net", "www." + g + ".com", g + ".xn--p1ai",
		"plain.net", ace(t, "paypаl") + ".co.uk", g + ".net",
	}
	want := det.Detect(domains)
	if len(want) == 0 {
		t.Fatal("no matches in parity corpus")
	}
	got, _, err := det.DetectLines(strings.NewReader(strings.Join(domains, "\n")), 3, BackendPostings)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream diverges from batch:\n%+v\nvs\n%+v", got, want)
	}
}

// TestDetectLinesMissAllocs: DetectLines allocates per call, not per
// line, on the miss path. Its miss lines pass the posting gate: live
// misses whose runes all occur in a reference, a dead-rune miss, a
// master-file record, and a plain name that the skeleton backend
// scans too; 1k and 4k of them must cost the same allocations.
func TestDetectLinesMissAllocs(t *testing.T) {
	if lint.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	det := NewDetector(testDB(t), []string{"google", "amazon"})
	g := ace(t, "gооgel") // Cyrillic о ×2
	miss := []string{
		g + ".com", "www." + g + ".co.uk", "xn--bcher-kva.net",
		g + ".net. 3600 IN NS ns1.example.", "googel.example.com",
	}
	zone := func(n int) string {
		var b strings.Builder
		for i := range n {
			b.WriteString(miss[i%len(miss)] + "\n")
		}
		return b.String()
	}
	small, large := zone(1000), zone(4000)
	for _, be := range []Backend{BackendPostings, BackendBoth} {
		allocs := func(z string) float64 {
			return testing.AllocsPerRun(20, func() {
				if ms, _, err := det.DetectLines(strings.NewReader(z), 2, be); err != nil || len(ms) != 0 {
					panic(fmt.Sprintf("%d matches, err %v", len(ms), err))
				}
			})
		}
		if a, b := allocs(small), allocs(large); a != b {
			t.Errorf("%v: %v allocations for 1k miss lines, %v for 4k", be, a, b)
		}
	}
}

// TestLabelPathDoesNotSplit re-enacts the seed pipeline, which stripped
// ".com" and scanned the rest as one label: every name below keeps a
// dot or a TLD, so the label path Revert uses sees a malformed label
// and finds nothing, while the domain path splits the name and finds
// the homograph in each.
func TestLabelPathDoesNotSplit(t *testing.T) {
	d := NewDetector(testDB(t), []string{"google", "amazon"})
	g, a := ace(t, "gооgle"), ace(t, "amаzon") // Cyrillic о ×2, а
	for _, name := range []string{
		g + ".net",
		"www." + g + ".com",
		g + ".xn--p1ai",
		a + ".co.uk",
		strings.ToUpper(g) + ".NET.",
	} {
		seedLabel := strings.TrimSuffix(strings.ToLower(name), ".com")
		if ms := detectLabel(d, seedLabel, BackendPostings); len(ms) != 0 {
			t.Fatalf("seed-style label scan of %q unexpectedly matched: %v", seedLabel, ms)
		}
		if ms := d.DetectDomainBackend(strings.ToLower(name), BackendPostings); len(ms) != 1 {
			t.Fatalf("domain scan of %q: %v, want one match", name, ms)
		}
	}
}
