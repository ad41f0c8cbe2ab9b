package core

import (
	"bytes"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/homoglyph"
	"repro/internal/punycode"
)

// mapFold is the per-rune fold as the rep/seq maps define it — what
// appendLabel computed before the fold table — kept as the table's
// parity oracle.
func mapFold(x *skelIndex, dst []byte, r rune) []byte {
	if s, ok := x.seq[r]; ok {
		for _, sr := range s {
			dst = utf8.AppendRune(dst, sr)
		}
		return dst
	}
	if m, ok := x.rep[r]; ok {
		return utf8.AppendRune(dst, m)
	}
	return utf8.AppendRune(dst, r)
}

// TestFoldTableParity checks the compiled fold table against the
// rep/seq maps it is derived from, rune by rune and over whole labels:
// every database rune, all of ASCII, and runes the table does not cover
// (random code points, the rune space's edges, runes no label can hold).
// It runs on the UC, SimChar and union views, on fresh and
// snapshot-loaded detectors.
func TestFoldTableParity(t *testing.T) {
	db := testDB(t)
	probe := append([]rune(nil), db.Chars().Runes()...)
	for r := rune(0); r < 0x80; r++ {
		probe = append(probe, r)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 4000; i++ {
		probe = append(probe, rune(rng.Intn(utf8.MaxRune+1)))
	}
	probe = append(probe, 0xFFFF, 0x10000, 0x1D800, 0xE0100, utf8.MaxRune, utf8.RuneError,
		0xD800, -1, utf8.MaxRune+1)

	refs := []string{"google", "microsoft", "wikipedia", "close"}
	views := []homoglyph.Source{homoglyph.SourceUC, homoglyph.SourceSimChar, homoglyph.SourceUC | homoglyph.SourceSimChar}
	for _, use := range views {
		view := db.WithSources(use)
		fresh := NewDetector(view, refs)
		loaded, err := NewDetectorFromSnapshot(view, fresh.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*Detector{"fresh": fresh, "loaded": loaded} {
			x := d.skel
			mapped := 0
			for _, r := range probe {
				got := x.appendLabel(nil, []rune{r})
				want := mapFold(x, nil, r)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v %s: fold(%U) = %q, maps say %q", use, name, r, got, want)
				}
				if x.fold.entry(r) != 0 {
					mapped++
				}
			}
			if mapped == 0 || len(x.fold.dir) == 0 {
				t.Fatalf("%v %s: fold table maps no probed rune", use, name)
			}
			// Whole labels: the table fold of a label is the
			// concatenation of its runes' map folds.
			for trial := 0; trial < 500; trial++ {
				label := make([]rune, 1+rng.Intn(12))
				for i := range label {
					label[i] = probe[rng.Intn(len(probe))]
				}
				var want []byte
				for _, r := range label {
					want = mapFold(x, want, r)
				}
				if got := x.appendLabel([]byte("prefix"), label); !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
					t.Fatalf("%v %s: fold(%q) = %q, maps say %q", use, name, string(label), got, want)
				}
			}
		}
	}
}

// TestSortMatchesParity checks the key-permutation sort against sorting
// the matches themselves with compareMatch: same key order on random
// sets with many duplicate keys, and every input match present exactly
// once. Full ties must keep their input order. The FQDNs include ones
// that share their first eight bytes, are shorter than eight, or hold
// the zero byte the prefix pads with.
func TestSortMatchesParity(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	fqdns := []string{"a.com", "b.com", "xn--a.net", "a.com.", "", "a", "a\x00", "a\x00\x00b",
		"xn--abcd.com", "xn--abcd.co", "xn--abcde.com", "xn--abcd", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
	idns := []string{"xn--a", "xn--b", "a", ""}
	refs := []string{"google", "amazon", "g"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	for _, n := range []int{0, 1, 2, 2, 2, 3, 5, 17, 64, 300, 1000} {
		for trial := 0; trial < 20; trial++ {
			in := make([]Match, n)
			for i := range in {
				// Unicode tags each match with its input position.
				in[i] = Match{FQDN: pick(fqdns), IDN: pick(idns), Reference: pick(refs), Unicode: strconv.Itoa(i)}
			}
			got := slices.Clone(in)
			SortMatches(got)
			want := slices.Clone(in)
			slices.SortFunc(want, func(a, b Match) int { return compareMatch(&a, &b) })

			seen := make([]bool, n)
			for i := range got {
				if compareMatch(&got[i], &want[i]) != 0 {
					t.Fatalf("n=%d: position %d key %q/%q/%q, want %q/%q/%q", n, i,
						got[i].FQDN, got[i].IDN, got[i].Reference, want[i].FQDN, want[i].IDN, want[i].Reference)
				}
				id, _ := strconv.Atoi(got[i].Unicode)
				if seen[id] {
					t.Fatalf("n=%d: match %d appears twice", n, id)
				}
				seen[id] = true
				if i > 0 && compareMatch(&got[i-1], &got[i]) == 0 {
					if prev, _ := strconv.Atoi(got[i-1].Unicode); prev > id {
						t.Fatalf("n=%d: tied matches %d and %d out of input order", n, prev, id)
					}
				}
			}
		}
	}
}

// TestOverlongACELabelSkipped pins the decode cap: an ACE label longer
// than the 63-octet DNS limit is not decoded, so it matches nothing on
// any entry point, while a 63-octet one still decodes and matches. Raw
// UTF-8 labels are not capped.
func TestOverlongACELabelSkipped(t *testing.T) {
	// "gо" + x…x with a Cyrillic о, spelled in ACE form; find the
	// padding that makes the ACE label exactly 63 octets.
	homograph := func(pad int) (label, ref string) {
		tail := strings.Repeat("x", pad)
		enc, err := punycode.Encode("gо" + tail)
		if err != nil {
			t.Fatal(err)
		}
		return punycode.ACEPrefix + enc, "go" + tail
	}
	pad := 0
	for ; pad < 64; pad++ {
		if l, _ := homograph(pad); len(l) == punycode.MaxLabelLength {
			break
		}
	}
	fits, fitsRef := homograph(pad)
	long, longRef := homograph(pad + 1)
	if len(fits) != 63 || len(long) != 64 {
		t.Fatalf("fixture lengths %d and %d, want 63 and 64", len(fits), len(long))
	}
	rawLong := "gо" + strings.Repeat("x", 70)
	rawRef := "go" + strings.Repeat("x", 70)
	d := NewDetector(testDB(t), []string{fitsRef, longRef, rawRef})

	// Without the cap the long label is a homograph: the linear scan,
	// which decodes anything, finds it.
	if ms := d.DetectLabelLinear(long); len(ms) != 1 || ms[0].Reference != longRef {
		t.Fatalf("linear scan of the 64-octet label: %v", ms)
	}
	for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
		if ms := d.DetectLabelBackend(fits, be); len(ms) != 1 || ms[0].Reference != fitsRef {
			t.Errorf("%v: 63-octet ACE label: %v, want one match of %q", be, ms, fitsRef)
		}
		if ms := d.DetectDomainBackend(fits+".com", be); len(ms) != 1 || ms[0].Reference != fitsRef {
			t.Errorf("%v: 63-octet ACE domain: %v, want one match of %q", be, ms, fitsRef)
		}
		if ms := d.DetectLabelBackend(long, be); len(ms) != 0 {
			t.Errorf("%v: 64-octet ACE label matched: %v", be, ms)
		}
		if ms := d.DetectLabelBytesBackend([]byte(strings.ToUpper(long)), be); len(ms) != 0 {
			t.Errorf("%v: 64-octet uppercase ACE label matched: %v", be, ms)
		}
		if ms := d.DetectDomainBytesBackend([]byte("www."+long+".com"), be); len(ms) != 0 {
			t.Errorf("%v: 64-octet ACE domain matched: %v", be, ms)
		}
		if ms := d.DetectDomainBackend(rawLong+".com", be); len(ms) != 1 || ms[0].Reference != rawRef {
			t.Errorf("%v: %d-octet raw UTF-8 label: %v, want one match of %q", be, len(rawLong), ms, rawRef)
		}
	}
}
