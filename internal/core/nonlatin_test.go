package core

import (
	"testing"

	"repro/internal/punycode"
)

// The paper (Section 2.2) shows a non-Latin homograph current browsers
// miss: 工業大学 ("institute of technology") imitated by エ業大学,
// where 工 (CJK U+5DE5) is swapped for エ (Katakana U+30A8). The
// synthetic font encodes that exact twin, so the detector must find it
// even though no Latin character is involved.
func TestDetectNonLatinHomograph(t *testing.T) {
	db := testDB(t)
	refs := []string{"工業大学", "google"}
	d := NewDetector(db, refs)

	idn := ace(t, "エ業大学")
	matches := d.DetectDomainBackend(idn, BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	m := matches[0]
	if m.Reference != "工業大学" {
		t.Errorf("reference = %q", m.Reference)
	}
	if len(m.Diffs) != 1 || m.Diffs[0].Got != 'エ' || m.Diffs[0].Want != '工' {
		t.Errorf("diffs = %v", m.Diffs)
	}
	if m.Diffs[0].Pos != 0 {
		t.Errorf("substitution position = %d", m.Diffs[0].Pos)
	}
}

// Katakana ニ for CJK 二 and ロ for 口 are further curated twins; a
// label mixing two of them must still match.
func TestDetectDoubleKanaSubstitution(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"二口工"})
	idn := ace(t, "ニロ工")
	matches := d.DetectDomainBackend(idn, BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	if len(matches[0].Diffs) != 2 {
		t.Errorf("diffs = %v", matches[0].Diffs)
	}
}

// A CJK label with an unrelated substitution must not match.
func TestNonLatinNoFalsePositive(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"工業大学"})
	// 山 (U+5C71) is not a homoglyph of 工 in any database.
	idn := ace(t, "山業大学")
	if matches := d.DetectDomainBackend(idn, BackendPostings); len(matches) != 0 {
		t.Errorf("unrelated CJK label matched: %v", matches)
	}
}

// Unicode-form input (not ACE) must work identically — callers inside
// a browser see the decoded form.
func TestDetectLabelUnicodeInput(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"工業大学"})
	matches := d.DetectDomainBackend("エ業大学", BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("unicode-form input: matches = %v", matches)
	}
}

// Reverting a non-Latin homograph reconstructs the original label
// (Section 6.4 is script-agnostic).
func TestNonLatinRevert(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"工業大学"})
	got, err := d.Revert(ace(t, "エ業大学"))
	if err != nil {
		t.Fatal(err)
	}
	if got != "工業大学" {
		t.Errorf("Revert = %q, want 工業大学", got)
	}
}

// Mixed-script homographs: Latin base with one Kana/CJK twin plus one
// Cyrillic twin — the class of attack the browsers' script-mixing
// heuristics handle inconsistently (Section 2.2).
func TestMixedScriptHomograph(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"ox二"})
	// о (Cyrillic U+043E) for o, ニ (Katakana) for 二.
	label := "оxニ"
	if _, err := punycode.ToASCIILabel(label); err != nil {
		t.Fatalf("test label not encodable: %v", err)
	}
	matches := d.DetectDomainBackend(ace(t, label), BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	if len(matches[0].Diffs) != 2 {
		t.Errorf("diffs = %v", matches[0].Diffs)
	}
}
