package core

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/punycode"
	"repro/internal/stats"
)

// TestDetectionCompletenessProperty: any label built by substituting
// 1–2 characters of a reference with database homoglyphs MUST be
// detected as a homograph of that reference — the correctness
// guarantee the registry generator and the whole evaluation rely on.
func TestDetectionCompletenessProperty(t *testing.T) {
	db := testDB(t)
	refs := []string{"google", "facebook", "myetherwallet", "allstate", "binance"}
	det := NewDetector(db, refs)

	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ref := refs[rng.Intn(len(refs))]
		runes := []rune(ref)
		subs := 1 + rng.Intn(2)
		changed := 0
		for try := 0; try < 20 && changed < subs; try++ {
			pos := rng.Intn(len(runes))
			if runes[pos] != []rune(ref)[pos] {
				continue // already substituted
			}
			glyphs := db.Homoglyphs(runes[pos])
			if len(glyphs) == 0 {
				continue
			}
			runes[pos] = glyphs[rng.Intn(len(glyphs))]
			changed++
		}
		if changed == 0 {
			return true // no substitutable position drawn; vacuous
		}
		label := string(runes)
		if _, err := punycode.ToASCIILabel(label); err != nil {
			return true // unencodable candidate; not a registrable attack
		}
		for _, m := range det.DetectDomainBackend(label, BackendPostings) {
			if m.Reference == ref && len(m.Diffs) == changed {
				return true
			}
		}
		t.Logf("missed homograph %q of %q (%d subs)", label, ref, changed)
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDetectionSoundnessProperty: random same-length labels that share
// no homoglyph relationship with a reference must NOT be detected.
func TestDetectionSoundnessProperty(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, []string{"google"})
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		runes := make([]rune, 6)
		for i := range runes {
			runes[i] = rune('a' + rng.Intn(26))
		}
		label := string(runes)
		matches := det.DetectDomainBackend(label, BackendPostings)
		if label == "google" {
			return len(matches) == 1
		}
		// An ASCII label is a homograph only if it IS the reference:
		// ASCII-to-ASCII pairs are never homoglyphs. The posting
		// backend's candidate gate skips ASCII labels on that premise,
		// so the pairwise check itself is reached through BackendBoth,
		// whose gate passes every label: no candidate may verify.
		if len(matches) != 0 {
			return false
		}
		for _, m := range det.DetectDomainBackend(label, BackendBoth) {
			if m.Backend != BackendSkeleton {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRevertRecoversReferenceProperty: reverting any detected
// homograph built from a reference returns that reference.
func TestRevertRecoversReferenceProperty(t *testing.T) {
	db := testDB(t)
	refs := []string{"google", "paypal"}
	det := NewDetector(db, refs)
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ref := refs[rng.Intn(len(refs))]
		runes := []rune(ref)
		pos := rng.Intn(len(runes))
		glyphs := db.Homoglyphs(runes[pos])
		if len(glyphs) == 0 {
			return true
		}
		runes[pos] = glyphs[rng.Intn(len(glyphs))]
		ace, err := punycode.ToASCIILabel(string(runes))
		if err != nil {
			return true
		}
		got, err := det.Revert(ace)
		return err == nil && got == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDetectBatchMatchesPerLabel: the batch API must equal per-label
// detection concatenated.
func TestDetectBatchMatchesPerLabel(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, []string{"google", "amazon"})
	labels := []string{
		ace(t, "gооgle"),
		"amazon",
		ace(t, "amazоn"),
		"unrelated",
	}
	batch := det.Detect(labels)
	var single []Match
	for _, l := range labels {
		single = append(single, det.DetectDomainBackend(l, BackendPostings)...)
	}
	if len(batch) != len(single) {
		t.Fatalf("batch %d matches, per-label %d", len(batch), len(single))
	}
	// Algorithm 1 iterates references in the outer loop, so batch
	// order differs from per-label order; compare as sets.
	key := func(m Match) string { return m.IDN + "\x00" + m.Reference }
	seen := make(map[string]int)
	for _, m := range batch {
		seen[key(m)]++
	}
	for _, m := range single {
		seen[key(m)]--
	}
	for k, n := range seen {
		if n != 0 {
			t.Errorf("match multiset differs at %q (%+d)", k, n)
		}
	}
}

// TestDetectLabelRejectsGarbage: malformed ACE input must not panic
// and must not match.
func TestDetectLabelRejectsGarbage(t *testing.T) {
	db := testDB(t)
	det := NewDetector(db, []string{"google"})
	for _, label := range []string{"xn--", "xn---", "xn--\x00", strings.Repeat("x", 500)} {
		for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
			if matches := det.DetectDomainBackend(label, be); len(matches) != 0 {
				t.Errorf("garbage %q matched under %v: %v", label, be, matches)
			}
		}
	}
}
