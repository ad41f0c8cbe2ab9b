package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/confusables"
	"repro/internal/fontgen"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/simchar"
	"repro/internal/ucd"
)

var (
	testDBOnce   sync.Once
	testDBShared *homoglyph.DB
)

// testDB builds a homoglyph DB from the mid-size font plus the default UC,
// shared across the package's tests (the build is deterministic).
func testDB(t testing.TB) *homoglyph.DB {
	t.Helper()
	testDBOnce.Do(func() {
		font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
		sim, _ := simchar.Build(font, ucd.IDNASet(), simchar.Options{})
		testDBShared = homoglyph.New(confusables.Default(), sim, 0)
	})
	return testDBShared
}

func ace(t testing.TB, unicodeLabel string) string {
	t.Helper()
	a, err := punycode.ToASCIILabel(unicodeLabel)
	if err != nil {
		t.Fatalf("ToASCIILabel(%q): %v", unicodeLabel, err)
	}
	return a
}

func TestDetectCyrillicGoogle(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "facebook", "amazon"})
	// gооgle with two Cyrillic о (the paper's Figure 2 example uses
	// Armenian օ; both are twins of o in the database).
	idn := ace(t, "gооgle")
	matches := d.DetectDomainBackend(idn, BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("matches = %d, want 1 (%v)", len(matches), matches)
	}
	m := matches[0]
	if m.Reference != "google" {
		t.Fatalf("reference = %q", m.Reference)
	}
	if len(m.Diffs) != 2 || m.Diffs[0].Pos != 1 || m.Diffs[1].Pos != 2 {
		t.Fatalf("diffs = %v", m.Diffs)
	}
	if m.Diffs[0].Got != 0x043E || m.Diffs[0].Want != 'o' {
		t.Fatalf("diff0 = %v", m.Diffs[0])
	}
}

func TestDetectArmenianExample(t *testing.T) {
	// Figure 2 left: g + Armenian օ (U+0585) twice.
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	idn := ace(t, "gօօgle")
	if got := d.DetectDomainBackend(idn, BackendPostings); len(got) != 1 {
		t.Fatalf("Armenian gօօgle not detected: %v", got)
	}
}

func TestRejectNonHomograph(t *testing.T) {
	// Figure 2 right: "gocaié" shares no structure with google.
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	idn := ace(t, "gocaié")
	if got := d.DetectDomainBackend(idn, BackendPostings); len(got) != 0 {
		t.Fatalf("gocaié wrongly detected: %v", got)
	}
}

func TestLengthMismatchSkipped(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	idn := ace(t, "gооgles") // 7 runes vs 6
	if got := d.DetectDomainBackend(idn, BackendPostings); len(got) != 0 {
		t.Fatalf("length mismatch should not match: %v", got)
	}
}

func TestDiacriticHomograph(t *testing.T) {
	// facébook: é is a UC-and-SimChar homoglyph of e? In our DB, é→e
	// comes from SimChar (Δ=3 acute).
	db := testDB(t)
	d := NewDetector(db, []string{"facebook"})
	idn := ace(t, "facébook")
	matches := d.DetectDomainBackend(idn, BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("facébook not detected: %v", matches)
	}
	if matches[0].Diffs[0].Source&homoglyph.SourceSimChar == 0 {
		t.Fatalf("é/e should be vouched by SimChar, got %v", matches[0].Diffs[0].Source)
	}
}

func TestUCOnlyVsUnionDetection(t *testing.T) {
	db := testDB(t)
	ucOnly := NewDetector(db.WithSources(homoglyph.SourceUC), []string{"facebook"})
	union := NewDetector(db, []string{"facebook"})
	idn := ace(t, "facébook") // é is SimChar-only
	if got := ucOnly.DetectDomainBackend(idn, BackendPostings); len(got) != 0 {
		t.Fatalf("UC-only should miss é: %v", got)
	}
	if got := union.DetectDomainBackend(idn, BackendPostings); len(got) != 1 {
		t.Fatalf("union should detect é: %v", got)
	}
}

func TestDetectBatchAndHistogram(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "amazon"})
	idns := []string{
		ace(t, "gооgle"),
		ace(t, "goоgle"),
		ace(t, "amazоn"),
		ace(t, "nomatché"),
	}
	matches := d.Detect(idns)
	if len(DetectedIDNs(matches)) != 3 {
		t.Fatalf("detected = %v", DetectedIDNs(matches))
	}
	h := TargetHistogram(matches)
	if h["google"] != 2 || h["amazon"] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestIdenticalLabelNotAHomograph(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	// A non-IDN ASCII label identical to the reference must not match
	// (a homograph requires at least one substitution). The posting
	// gate skips ASCII labels, so the skeleton backends reach the check.
	for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
		if got := d.DetectDomainBackend("google", be); len(got) != 0 {
			t.Fatalf("identical label matched under %v: %v", be, got)
		}
	}
}

func TestInvalidPunycodeIgnored(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	if got := d.DetectDomainBackend("xn--!!!", BackendPostings); got != nil {
		t.Fatalf("invalid punycode should yield nil, got %v", got)
	}
}

func TestRevert(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, nil)
	idn := ace(t, "gооgle")
	back, err := d.Revert(idn)
	if err != nil || back != "google" {
		t.Fatalf("Revert = %q, %v", back, err)
	}
	// Lao digit zero reverts to o (Figure 12).
	idn = ace(t, "g໐໐gle")
	back, err = d.Revert(idn)
	if err != nil || back != "google" {
		t.Fatalf("Revert Lao = %q, %v", back, err)
	}
	if _, err := d.Revert("xn--!!!"); err == nil {
		t.Fatal("invalid punycode must error")
	}
}

func TestReferencesDeduplicated(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google", "GOOGLE", " google ", "amazon", ""})
	if got := len(d.References()); got != 2 {
		t.Fatalf("references = %v", d.References())
	}
}

func TestWarningRendering(t *testing.T) {
	db := testDB(t)
	d := NewDetector(db, []string{"google"})
	m := d.DetectDomainBackend(ace(t, "g໐໐gle"), BackendPostings)
	if len(m) != 1 {
		t.Fatalf("expected 1 match, got %v", m)
	}
	w := BuildWarning(m[0])
	txt := w.Text()
	if !strings.Contains(txt, "Did you mean \"google\"") {
		t.Errorf("warning text missing suggestion:\n%s", txt)
	}
	if !strings.Contains(txt, "Lao") {
		t.Errorf("warning text missing script context:\n%s", txt)
	}
	page := w.HTML()
	for _, want := range []string{"<!DOCTYPE html>", "class=\"hl\"", "google", "Proceed anyway"} {
		if !strings.Contains(page, want) {
			t.Errorf("warning HTML missing %q", want)
		}
	}
	// The two substituted characters must be highlighted exactly twice.
	if got := strings.Count(page, "<span class=\"hl\">"); got < 2 {
		t.Errorf("highlight spans = %d, want >= 2", got)
	}
}

func TestCharDiffString(t *testing.T) {
	d := CharDiff{Pos: 1, Got: 0x0585, Want: 'o', Source: homoglyph.SourceSimChar}
	if s := d.String(); !strings.Contains(s, "@1") || !strings.Contains(s, "SimChar") {
		t.Fatalf("CharDiff.String = %q", s)
	}
}

// BenchmarkDetectLabel measures a verified 2-diff hit. Its output is
// carved from the scratch slabs, so it reports 0 allocs/op: the few
// slab refills truncate away in the per-op average.
func BenchmarkDetectLabel(b *testing.B) {
	db := testDB(b)
	refs := make([]string, 0, 1000)
	for i := 0; i < 1000; i++ {
		refs = append(refs, strings.Repeat("ab", 3)+string(rune('a'+i%26))+string(rune('a'+(i/26)%26)))
	}
	refs = append(refs, "google")
	d := NewDetector(db, refs)
	idn, _ := punycode.ToASCIILabel("gооgle")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.DetectDomainBackend(idn, BackendPostings)
	}
}
