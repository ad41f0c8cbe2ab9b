package core

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/punycode"
	"repro/internal/stats"
)

// indexRefs is a reference list with length collisions, shared prefixes
// and homoglyph-dense characters, so skeleton probes return several
// candidates and verification actually has work to do.
var indexRefs = []string{
	"google", "goggle", "gooole", "facebook", "faceboot",
	"myetherwallet", "allstate", "binance", "amazon", "amazen",
	"paypal", "payqal", "oooooo", "oxoxox",
}

// mutateLabel substitutes up to maxSubs characters of ref with database
// homoglyphs (or, every third draw, a random Latin letter, producing
// near-miss labels that must be rejected identically by both engines).
func mutateLabel(t *testing.T, d *Detector, rng *stats.RNG, ref string, maxSubs int) string {
	t.Helper()
	runes := []rune(ref)
	subs := 1 + rng.Intn(maxSubs)
	for k := 0; k < subs; k++ {
		pos := rng.Intn(len(runes))
		if rng.Intn(3) == 0 {
			runes[pos] = rune('a' + rng.Intn(26))
			continue
		}
		glyphs := d.DB().Homoglyphs(runes[pos])
		if len(glyphs) > 0 {
			runes[pos] = glyphs[rng.Intn(len(glyphs))]
		}
	}
	return string(runes)
}

// TestIndexedMatchesLinearParity: the skeleton-indexed engine must
// return byte-for-byte identical matches to the seed linear scan, for
// labels built by homoglyph substitution as well as for near-miss
// garbage.
func TestIndexedMatchesLinearParity(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, indexRefs)
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ref := indexRefs[rng.Intn(len(indexRefs))]
		label := mutateLabel(t, det, rng, ref, 3)
		ace, err := punycode.ToASCIILabel(label)
		if err != nil {
			return true // unencodable candidate; not a registrable attack
		}
		indexed := det.DetectDomainBackend(ace, BackendPostings)
		linear := det.DetectLabelLinear(ace)
		if !reflect.DeepEqual(indexed, linear) {
			t.Logf("label %q: indexed %+v, linear %+v", label, indexed, linear)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestIndexedParityOnReferences: feeding the references themselves (and
// their Unicode forms) must yield no self-matches from either engine.
func TestIndexedParityOnReferences(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, indexRefs)
	for _, ref := range indexRefs {
		indexed := det.DetectDomainBackend(ref, BackendPostings)
		linear := det.DetectLabelLinear(ref)
		if !reflect.DeepEqual(indexed, linear) {
			t.Errorf("ref %q: indexed %+v, linear %+v", ref, indexed, linear)
		}
		for _, m := range indexed {
			if m.Reference == ref {
				t.Errorf("ref %q matched itself: %+v", ref, m)
			}
		}
	}
}

// TestDetectParallelDeterminism: the batch path behind Detect must
// return the identical slice for any worker count, including
// duplicated input labels.
func TestDetectParallelDeterminism(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, indexRefs)
	rng := stats.NewRNG(99)
	var labels []string
	for i := 0; i < 300; i++ {
		ref := indexRefs[rng.Intn(len(indexRefs))]
		label := mutateLabel(t, det, rng, ref, 2)
		if a, err := punycode.ToASCIILabel(label); err == nil {
			labels = append(labels, a)
		}
	}
	labels = append(labels, labels[:40]...) // duplicates on purpose

	want := det.detect(labels, 1)
	if len(want) == 0 {
		t.Fatal("no matches in determinism corpus")
	}
	for _, workers := range []int{0, 2, 3, 4, 7, 16, 32, len(labels) + 5} {
		got := det.detect(labels, workers)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: output differs from sequential (%d vs %d matches)",
				workers, len(got), len(want))
		}
	}
}

// TestDetectLinesMatchesBatch: the line reader must produce exactly
// the batch API's sorted slice, for any worker count.
func TestDetectLinesMatchesBatch(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, indexRefs)
	rng := stats.NewRNG(123)
	var labels []string
	for i := 0; i < 200; i++ {
		ref := indexRefs[rng.Intn(len(indexRefs))]
		label := mutateLabel(t, det, rng, ref, 2)
		if a, err := punycode.ToASCIILabel(label); err == nil {
			labels = append(labels, a)
		}
	}
	want := det.Detect(labels)
	for _, workers := range []int{1, 4} {
		got, _, err := det.DetectLines(strings.NewReader(strings.Join(labels, "\n")), workers, BackendPostings)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: lines %d matches, batch %d; sorted outputs differ", workers, len(got), len(want))
		}
	}
}
