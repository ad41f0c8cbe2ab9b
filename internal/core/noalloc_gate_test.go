package core

import (
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
	}
	// Warm the scratch pool outside the measured region.
	exercise()

	lint.CheckNoallocCoverage(t, ".", map[string]func(){
		"(*Detector).DetectDomainBytesBackend": exercise,
	})
}
