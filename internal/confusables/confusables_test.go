package confusables

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ucd"
)

func TestParseFormat(t *testing.T) {
	const sample = `# confusables.txt sample
0430 ;	0061 ;	MA	# ( а → a ) CYRILLIC SMALL LETTER A
05D5 05D5 ; 0077 ; MA # double vav → w would be a sequence source (rejected below)
`
	// The sequence-source line must cause an error.
	if _, err := Parse(strings.NewReader(sample)); err == nil {
		t.Fatal("multi-codepoint source should be rejected")
	}
	db, err := Parse(strings.NewReader("0430 ;\t0061 ;\tMA\t# comment\n\n# only comment\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tgt, ok := db.Lookup(0x0430); !ok || len(tgt) != 1 || tgt[0] != 'a' {
		t.Fatalf("Lookup(а) = %v, %v", tgt, ok)
	}
}

func TestParseMultiRuneTarget(t *testing.T) {
	db, err := Parse(strings.NewReader("2163 ; 0049 0056 ; MA\n"))
	if err != nil {
		t.Fatal(err)
	}
	tgt, ok := db.Lookup(0x2163)
	if !ok || string(tgt) != "IV" {
		t.Fatalf("target = %q", string(tgt))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"0430\n",          // missing separator
		"ZZZZ ; 0061 ;\n", // bad hex
		"0430 ; ZZ ;\n",   // bad target hex
		"0430 ;  ;\n",     // empty target
	}
	for _, in := range bad {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	db := New()
	db.Add(0x0430, []rune{'a'}, "cyrillic a")
	db.Add(0x2163, []rune("IV"), "")
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round-trip len %d != %d", back.Len(), db.Len())
	}
	if tgt, _ := back.Lookup(0x2163); string(tgt) != "IV" {
		t.Fatalf("round-trip target %q", string(tgt))
	}
}

func TestConfusableAndSkeleton(t *testing.T) {
	db := New()
	db.Add(0x0430, []rune{'a'}, "")
	db.Add(0x03B1, []rune{'a'}, "")
	db.Add(0x0435, []rune{'e'}, "")
	if !db.Confusable(0x0430, 'a') || !db.Confusable('a', 0x0430) {
		t.Fatal("а/a must be confusable both ways")
	}
	if !db.Confusable(0x0430, 0x03B1) {
		t.Fatal("а/α share skeleton 'a'")
	}
	if db.Confusable(0x0430, 'e') || db.Confusable('x', 'y') {
		t.Fatal("non-confusables misreported")
	}
	if !db.Confusable('q', 'q') {
		t.Fatal("identity must be confusable")
	}
	if got := db.Skeleton("fаcеbook"); got != "facebook" {
		t.Fatalf("Skeleton = %q", got)
	}
}

func TestSkeletonChainsAndCycles(t *testing.T) {
	db := New()
	db.Add('x', []rune{'y'}, "")
	db.Add('y', []rune{'z'}, "")
	if got := string(db.SkeletonAppend(nil, 'x')); got != "z" {
		t.Fatalf("SkeletonAppend(x) = %q; chains must resolve transitively", got)
	}
	// A cycle must terminate.
	db.Add('z', []rune{'x'}, "")
	_ = db.SkeletonAppend(nil, 'x') // must not hang
}

func TestRestrictSources(t *testing.T) {
	db := New()
	db.Add(0x0430, []rune{'a'}, "") // PVALID source
	db.Add(0xFF41, []rune{'a'}, "") // fullwidth a: not PVALID
	restricted := db.RestrictSources(ucd.IDNASet())
	if restricted.Len() != 1 {
		t.Fatalf("restricted len = %d, want 1", restricted.Len())
	}
	if _, ok := restricted.Lookup(0xFF41); ok {
		t.Fatal("non-PVALID source must be dropped")
	}
}

func TestDefaultProfile(t *testing.T) {
	db := Default()
	// Total sources: the synthetic UC is ~2.5k sources (paper: 6,296
	// pairs); what matters is the IDNA split below.
	if db.Len() < 1500 || db.Len() > 6000 {
		t.Fatalf("default UC len = %d, want 1.5k-6k", db.Len())
	}
	idna := ucd.IDNASet()
	inIDNA := db.RestrictSources(idna)
	frac := float64(inIDNA.Len()) / float64(db.Len())
	if frac > 0.5 {
		t.Fatalf("UC∩IDNA fraction = %.2f, want < 0.5 (most of UC outside IDNA)", frac)
	}
	if inIDNA.Len() < 300 || inIDNA.Len() > 1500 {
		t.Fatalf("UC∩IDNA sources = %d, want 300-1500 (paper: 980 chars)", inIDNA.Len())
	}
}

func TestDefaultLatinQuotas(t *testing.T) {
	db := Default().RestrictSources(ucd.IDNASet())
	counts := map[rune]int{}
	for _, src := range db.Sources() {
		if tgt, _ := db.Lookup(src); len(tgt) == 1 && tgt[0] >= 'a' && tgt[0] <= 'z' {
			counts[tgt[0]]++
		}
	}
	// 'o' must dominate, as in Table 3.
	for letter, want := range latinQuota {
		if counts[letter] < want-1 { // donor exhaustion tolerance
			t.Errorf("letter %q has %d UC homoglyphs, want ≈%d", letter, counts[letter], want)
		}
	}
	if counts['o'] <= counts['l'] || counts['o'] <= counts['e'] {
		t.Errorf("'o' must have the most homoglyphs: o=%d l=%d e=%d",
			counts['o'], counts['l'], counts['e'])
	}
}

func TestDefaultBlockProfile(t *testing.T) {
	db := Default().RestrictSources(ucd.IDNASet())
	blockCounts := map[string]int{}
	for _, src := range db.Sources() {
		blockCounts[ucd.BlockOf(src)]++
	}
	// Table 4 right column ordering: CJK > CDM > Arabic > Cyrillic > Thai.
	cjk := blockCounts["CJK Unified Ideographs"]
	cdm := blockCounts["Combining Diacritical Marks"]
	arabic := blockCounts["Arabic"]
	thai := blockCounts["Thai"]
	if cjk < 80 {
		t.Errorf("CJK sources = %d, want ≈91", cjk)
	}
	if cdm < 50 {
		t.Errorf("CDM sources = %d, want ≈56", cdm)
	}
	if arabic < 40 {
		t.Errorf("Arabic sources = %d, want ≈52", arabic)
	}
	if thai < 30 {
		t.Errorf("Thai sources = %d, want ≈36", thai)
	}
	if !(cjk > cdm && cdm > arabic && arabic > thai) {
		t.Errorf("block ordering wrong: CJK=%d CDM=%d Arabic=%d Thai=%d", cjk, cdm, arabic, thai)
	}
}

func TestDefaultKnownConfusables(t *testing.T) {
	db := Default()
	known := []struct {
		src rune
		tgt rune
	}{
		{0x0430, 'a'}, // Cyrillic а
		{0x043E, 'o'}, // Cyrillic о
		{0x0585, 'o'}, // Armenian օ
		{0x0ED0, 'o'}, // Lao zero (Figure 12)
		{0x10E7, 'y'}, // Georgian qar (Figure 11)
		{0xFF41, 'a'}, // fullwidth a
	}
	for _, k := range known {
		tgt, ok := db.Lookup(k.src)
		if !ok || len(tgt) == 0 || tgt[0] != k.tgt {
			t.Errorf("Lookup(%#U) = %q, %v; want %q", k.src, string(tgt), ok, k.tgt)
		}
	}
}

func TestCharsAndPairs(t *testing.T) {
	db := New()
	db.Add('x', []rune{'a'}, "")
	db.Add('y', []rune{'a'}, "")
	if db.Pairs() != 2 {
		t.Fatalf("Pairs = %d", db.Pairs())
	}
	chars := db.Chars()
	if chars.Len() != 3 { // x, y, a
		t.Fatalf("Chars = %d, want 3", chars.Len())
	}
}

func TestDefaultIsCached(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default must be cached")
	}
}

// TestFromRows: flat rows build the database Add builds from the same
// entries, applied in order — a repeated source keeps its last target
// and its last non-empty comment — and rows that disagree with the
// arena are refused.
func TestFromRows(t *testing.T) {
	sources := []rune{0x0430, 'm', 0x0430, 0x2161, 'z'}
	lens := []int32{1, 2, 1, 2, 0}
	targets := []rune{'x', 'r', 'n', 'a', 'I', 'I'}
	comments := []string{"first", "M", "", "ROMAN TWO", ""}
	got, err := FromRows(sources, lens, targets, comments)
	if err != nil {
		t.Fatal(err)
	}
	want := New()
	off := 0
	for i, src := range sources {
		want.Add(src, targets[off:off+int(lens[i])], comments[i])
		off += int(lens[i])
	}
	if !reflect.DeepEqual(got.Entries(), want.Entries()) {
		t.Fatalf("entries %v, want %v", got.Entries(), want.Entries())
	}
	if tgt, _ := got.Lookup('m'); cap(tgt) != len(tgt) {
		t.Fatalf("target of m has room past its row: len %d, cap %d", len(tgt), cap(tgt))
	}
	for name, bad := range map[string]func() (*DB, error){
		"overrun":  func() (*DB, error) { return FromRows([]rune{'a'}, []int32{2}, []rune{'b'}, []string{""}) },
		"negative": func() (*DB, error) { return FromRows([]rune{'a'}, []int32{-1}, nil, []string{""}) },
		"leftover": func() (*DB, error) { return FromRows([]rune{'a'}, []int32{1}, []rune{'b', 'c'}, []string{""}) },
		"comments": func() (*DB, error) { return FromRows([]rune{'a'}, []int32{1}, []rune{'b'}, nil) },
	} {
		if _, err := bad(); err == nil {
			t.Errorf("%s: FromRows accepted the rows", name)
		}
	}
}
