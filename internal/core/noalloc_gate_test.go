package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/punycode"
)

// TestNoallocGate pins the detector's //shamlint:noalloc contract
// dynamically: with a warm scratch pool, byte detection of a bare
// label or a whole domain must allocate nothing on the miss path — the
// shape of nearly every line a zone feeder pushes through. The main inputs are
// live misses, every rune of which occurs in a reference key, so they
// pass the dead-rune gate and pay the full decode, fold and map probe;
// a dead-rune miss ("bücher": no reference holds b or ü) covers the
// early exit.
//
// The edge inputs bound probe's stack buffers from both sides, under
// every backend: a live raw UTF-8 miss longer than the stack buffers
// (it probes in the pooled scratch), a 63-byte ACE miss (the longest
// ACE label the detector scans), and the longest ACE label made of the
// rune whose skeleton is longest, with its raw UTF-8 spelling. Each
// must find the candidates an ungated probe finds.
func TestNoallocGate(t *testing.T) {
	det := NewDetector(testDB(t), []string{"google", "amazon"})
	// "gооgel" with two Cyrillic о.
	label := []byte(ace(t, "gооgel"))
	fqdn := []byte("www." + string(label) + ".co.uk")
	dead := []byte("www.xn--bcher-kva.co.uk")
	// A pure-ASCII miss: only the skeleton backend even considers it,
	// and its whole-label probe must stay allocation-free too.
	asciiFqdn := []byte("googel.example.com")
	for _, l := range []string{string(label), "googel"} {
		runes, err := punycode.ToUnicodeLabelAppend(nil, l, det.skel.keep)
		if err != nil {
			t.Fatalf("%q: %v", l, err)
		}
		if _, live := det.skel.appendLive(nil, runes); !live {
			t.Fatalf("%q stops at the dead-rune gate; the gate needs a live miss", l)
		}
	}
	if _, err := punycode.ToUnicodeLabelAppend(nil, "xn--bcher-kva", det.skel.keep); err != punycode.ErrRejected {
		t.Fatalf("xn--bcher-kva: err = %v, want ErrRejected", err)
	}

	longRaw := strings.Repeat("gооgle", 12)
	if len(longRaw) <= det.skel.fold.stackLen {
		t.Fatalf("%d-byte raw label fits the %d-byte stack path", len(longRaw), det.skel.fold.stackLen)
	}
	var ace63 string
	for n := 1; n < 64 && ace63 == ""; n++ {
		if a := ace(t, strings.Repeat("googleamazon", 6)[:n]+"о"); len(a) == punycode.MaxLabelLength {
			ace63 = a
		}
	}
	if ace63 == "" {
		t.Fatal("no 63-byte ACE label found")
	}
	wide, wideDet := widestSkeletonLabels(t)
	edges := []struct {
		det   *Detector
		label []byte
	}{{det, []byte(longRaw)}, {det, []byte(ace63)}, {wideDet, []byte(wide[0])}, {wideDet, []byte(wide[1])}}
	for _, e := range edges {
		gated, ungated, dead := e.det.Candidates(string(e.label))
		if dead || len(ungated) != 0 || !slices.Equal(gated, ungated) {
			t.Fatalf("%q: candidates %v, ungated %v, dead %v; want a live miss", e.label, gated, ungated, dead)
		}
	}

	// Every input runs under each backend it covers; the bare ACE label
	// is a dotless name.
	postings := [][]byte{label, fqdn, dead}
	both := [][]byte{label, asciiFqdn}
	skeleton := [][]byte{fqdn}
	exercise := func() {
		for _, c := range []struct {
			names [][]byte
			be    Backend
		}{{postings, BackendPostings}, {both, BackendBoth}, {skeleton, BackendSkeleton}} {
			for _, name := range c.names {
				if ms := det.DetectDomainBytesBackend(name, c.be); len(ms) != 0 {
					panic("unexpected match")
				}
			}
		}
		for _, e := range edges {
			for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
				if ms := e.det.DetectDomainBytesBackend(e.label, be); len(ms) != 0 {
					panic("unexpected match")
				}
			}
		}
	}
	// Warm the scratch pool outside the measured region.
	exercise()

	// NormalizeZoneLine runs each gate outcome under each backend: a
	// plain name, an IDN, and master-file records whose owner name the
	// gate keeps or drops.
	lines := []string{"Plain-Name.COM", "XN--GGLE-55DA.COM.", "xn--ggle-55da.com. 3600 IN NS ns1.example.", "plain.com\tIN\tNS\txn--a.example."}
	buf := make([]byte, 64)
	normalize := func() {
		for _, l := range lines {
			for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
				NormalizeZoneLine(buf[:copy(buf, l)], be)
			}
		}
	}

	lint.CheckNoallocCoverage(t, ".", map[string]func(){
		"(*Detector).DetectDomainBytesBackend": exercise,
		"NormalizeZoneLine":                    normalize,
	})
}

// widestSkeletonLabels finds the folded rune whose skeleton is longest
// and returns the longest ACE label made of it alone, its raw UTF-8
// spelling, and a detector whose only extra reference is the rune
// itself, so that the rune is live and the labels are live misses. It
// checks that the ACE label's skeleton fits the stack buffers.
func widestSkeletonLabels(t *testing.T) ([2]string, *Detector) {
	t.Helper()
	x := NewDetector(testDB(t), nil).skel
	var widest rune
	most := 0
	for r := range testDB(t).FoldRows().All() {
		if punycode.Fold(r) != r {
			continue
		}
		if n := len(x.appendLabel(nil, []rune{r})); n > most {
			widest, most = r, n
		}
	}
	var label string
	for k := 1; ; k++ {
		enc, err := punycode.Encode(strings.Repeat(string(widest), k))
		if err != nil || len(punycode.ACEPrefix+enc) > punycode.MaxLabelLength {
			break
		}
		label = punycode.ACEPrefix + enc
	}
	d := NewDetector(testDB(t), []string{"google", "amazon", string(widest)})
	uni, err := punycode.ToUnicodeLabel(label)
	if err != nil {
		t.Fatal(err)
	}
	runes := []rune(uni)
	if skel := d.skel.appendLabel(nil, runes); len(label) > d.skel.fold.stackLen || len(skel) > stackSkel {
		t.Fatalf("%q (%d bytes, %d-byte skeleton) does not fit the stack buffers", label, len(label), len(skel))
	}
	t.Logf("widest skeleton: U+%04X, %d bytes; %d-rune ACE label %q", widest, most, len(runes), label)
	return [2]string{label, uni}, d
}
