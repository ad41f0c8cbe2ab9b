package ucd

import (
	"slices"
	"testing"
	"testing/quick"
	"unicode"
)

func TestBlockOfKnownCodePoints(t *testing.T) {
	cases := []struct {
		r    rune
		want string
	}{
		{'a', "Basic Latin"},
		{'é', "Latin-1 Supplement"},
		{0x0131, "Latin Extended-A"}, // dotless i
		{0x0430, "Cyrillic"},         // а
		{0x03B1, "Greek and Coptic"}, // α
		{0x0585, "Armenian"},         // օ
		{0x4E00, "CJK Unified Ideographs"},
		{0x30A8, "Katakana"}, // エ
		{0xAC00, "Hangul Syllables"},
		{0x0B32, "Oriya"},
		{0x0E97, "Lao"},
		{0xA500, "Vai"},
		{0x1400, "Unified Canadian Aboriginal Syllabics"},
		{0x0300, "Combining Diacritical Marks"},
		{0x118D8, "Warang Citi"},
		{0x1F600, "Emoticons"},
	}
	for _, c := range cases {
		if got := BlockOf(c.r); got != c.want {
			t.Errorf("BlockOf(%#U) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestBlockOfOutsideAnyBlock(t *testing.T) {
	// A code point in an unallocated gap.
	if got := BlockOf(0x0860); got == NoBlock {
		// 0x0860 belongs to Syriac Supplement, which we do not tabulate —
		// either answer is acceptable as long as it does not panic, but the
		// gap below must report NoBlock.
		_ = got
	}
	if got := BlockOf(0x2FE0); got != NoBlock {
		t.Errorf("BlockOf(0x2FE0) = %q, want %q", got, NoBlock)
	}
}

func TestBlocksAreSortedAndDisjoint(t *testing.T) {
	bs := Blocks()
	for i := 1; i < len(bs); i++ {
		if bs[i].Lo <= bs[i-1].Hi {
			t.Fatalf("blocks %q and %q overlap or are unsorted", bs[i-1].Name, bs[i].Name)
		}
	}
	for _, b := range bs {
		if b.Lo > b.Hi {
			t.Errorf("block %q has Lo > Hi", b.Name)
		}
		if b.Lo&0xF != 0 {
			t.Errorf("block %q does not start on a 16-boundary: %#x", b.Name, b.Lo)
		}
	}
}

func TestBlockByName(t *testing.T) {
	b, ok := BlockByName("Hangul Syllables")
	if !ok || b.Lo != 0xAC00 || b.Hi != 0xD7AF {
		t.Fatalf("BlockByName(Hangul Syllables) = %+v, %v", b, ok)
	}
	if _, ok := BlockByName("Klingon"); ok {
		t.Fatal("BlockByName(Klingon) unexpectedly found")
	}
}

func TestScriptOf(t *testing.T) {
	cases := []struct {
		r    rune
		want string
	}{
		{'a', "Latin"},
		{0x0430, "Cyrillic"},
		{0x03B1, "Greek"},
		{0x4E00, "Han"},
		{0x30A8, "Katakana"},
		{0x3042, "Hiragana"},
		{0xAC00, "Hangul"},
		{0x05D0, "Hebrew"},
		{0x0627, "Arabic"},
		{'1', "Common"},
		{0x0300, "Inherited"},
	}
	for _, c := range cases {
		if got := ScriptOf(c.r); got != c.want {
			t.Errorf("ScriptOf(%#U) = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestIsSingleScript(t *testing.T) {
	cases := []struct {
		s    string
		want bool
	}{
		{"google", true},
		{"gооgle", false}, // Cyrillic о mixed into Latin
		{"工業大学", true},    // 工業大学 all Han
		{"エ業大学", true},    // エ業大学 Katakana+Han: CJK class
		{"abc123", true},
		{"café", true},
		{"абв", true},  // pure Cyrillic
		{"abα", false}, // Latin + Greek
		{"", true},
		{"123-", true}, // only Common
	}
	for _, c := range cases {
		if got := IsSingleScript(c.s); got != c.want {
			t.Errorf("IsSingleScript(%q) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestDerivedPropertyLDH(t *testing.T) {
	for r := 'a'; r <= 'z'; r++ {
		if DerivedProperty(r) != PValid {
			t.Errorf("%#U should be PVALID", r)
		}
	}
	for r := '0'; r <= '9'; r++ {
		if DerivedProperty(r) != PValid {
			t.Errorf("%#U should be PVALID", r)
		}
	}
	if DerivedProperty('-') != PValid {
		t.Error("hyphen should be PVALID")
	}
	for r := 'A'; r <= 'Z'; r++ {
		if DerivedProperty(r) != Disallowed {
			t.Errorf("%#U should be DISALLOWED", r)
		}
	}
	for _, r := range []rune{'.', '_', ' ', '!', '/', '\x00'} {
		if DerivedProperty(r) != Disallowed {
			t.Errorf("%#U should be DISALLOWED", r)
		}
	}
}

func TestDerivedPropertyExceptions(t *testing.T) {
	cases := []struct {
		r    rune
		want Property
	}{
		{0x00DF, PValid},     // ß
		{0x03C2, PValid},     // ς
		{0x3007, PValid},     // 〇
		{0x00B7, ContextO},   // middle dot
		{0x200C, ContextJ},   // ZWNJ
		{0x200D, ContextJ},   // ZWJ
		{0x0640, Disallowed}, // Arabic tatweel
		{0x30FB, ContextO},   // katakana middle dot
	}
	for _, c := range cases {
		if got := DerivedProperty(c.r); got != c.want {
			t.Errorf("DerivedProperty(%#U) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestDerivedPropertyScripts(t *testing.T) {
	pvalid := []rune{
		0x00E9, // é
		0x0430, // Cyrillic а
		0x03B1, // Greek α
		0x4E00, // CJK 一
		0x3042, // Hiragana あ
		0x30A8, // Katakana エ
		0xAC00, // Hangul syllable 가
		0x05D0, // Hebrew alef
		0x0627, // Arabic alef
		0x0E01, // Thai ko kai
		0x0ED0, // Lao digit zero... actually Nd so PVALID
	}
	for _, r := range pvalid {
		if got := DerivedProperty(r); got != PValid {
			t.Errorf("DerivedProperty(%#U) = %v, want PVALID", r, got)
		}
	}
	disallowed := []rune{
		0x1100,  // conjoining Hangul jamo (rule L)
		0xFF41,  // fullwidth a (compatibility)
		0x2160,  // Roman numeral one (Number Forms)
		0x00A9,  // © symbol
		0x2028,  // line separator
		0xFE00,  // variation selector
		0x1F600, // emoticon
	}
	for _, r := range disallowed {
		if got := DerivedProperty(r); got == PValid {
			t.Errorf("DerivedProperty(%#U) = PVALID, want non-PVALID", r)
		}
	}
}

func TestDerivedPropertyUnassigned(t *testing.T) {
	if got := DerivedProperty(0x05FF); got != Unassigned {
		t.Errorf("DerivedProperty(U+05FF) = %v, want UNASSIGNED", got)
	}
}

func TestPropertyString(t *testing.T) {
	pairs := map[Property]string{
		PValid:     "PVALID",
		ContextJ:   "CONTEXTJ",
		ContextO:   "CONTEXTO",
		Disallowed: "DISALLOWED",
		Unassigned: "UNASSIGNED",
	}
	for p, want := range pairs {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
}

func TestIDNASetSizeAndMembers(t *testing.T) {
	set := IDNASet()
	// Unicode 12 had 123,006 PVALID code points; the stdlib ships a newer
	// UCD so the count grows, but it must stay within the same order.
	if n := set.Len(); n < 100000 || n > 160000 {
		t.Fatalf("IDNASet size = %d, want ~123k-150k", n)
	}
	for _, r := range []rune{'a', 'z', '0', '-', 0x00E9, 0x0430, 0x4E00, 0xAC00} {
		if !set.Contains(r) {
			t.Errorf("IDNASet should contain %#U", r)
		}
	}
	for _, r := range []rune{'A', '.', 0x1100, 0xFF41} {
		if set.Contains(r) {
			t.Errorf("IDNASet should not contain %#U", r)
		}
	}
	// CJK and Hangul dominate the set, as in the paper.
	cjk, hangul := 0, 0
	for r := rune(0x4E00); r <= 0x9FFF; r++ {
		if set.Contains(r) {
			cjk++
		}
	}
	for r := rune(0xAC00); r <= 0xD7A3; r++ {
		if set.Contains(r) {
			hangul++
		}
	}
	if cjk < 20000 {
		t.Errorf("CJK PVALID count = %d, want >= 20000", cjk)
	}
	if hangul != 11172 {
		t.Errorf("Hangul syllable PVALID count = %d, want 11172", hangul)
	}
}

func TestIDNASetIsCached(t *testing.T) {
	if IDNASet() != IDNASet() {
		t.Fatal("IDNASet should return the same cached set")
	}
}

func TestRuneSetBasics(t *testing.T) {
	s := NewRuneSet('a', 'b', 'c')
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	s.Add('a') // duplicate
	if s.Len() != 3 {
		t.Fatalf("Len after dup add = %d, want 3", s.Len())
	}
	s.Remove('b')
	if s.Len() != 2 || s.Contains('b') {
		t.Fatalf("Remove failed: len=%d contains(b)=%v", s.Len(), s.Contains('b'))
	}
	s.Remove('b') // removing absent member is a no-op
	if s.Len() != 2 {
		t.Fatalf("Len after double remove = %d, want 2", s.Len())
	}
	got := s.Runes()
	if len(got) != 2 || got[0] != 'a' || got[1] != 'c' {
		t.Fatalf("Runes() = %v", got)
	}
}

func TestRuneSetOps(t *testing.T) {
	a := NewRuneSet('a', 'b', 'c', 0x4E00)
	b := NewRuneSet('b', 'c', 'd')
	inter := a.Intersect(b)
	if inter.Len() != 2 || !inter.Contains('b') || !inter.Contains('c') {
		t.Fatalf("Intersect = %v", inter.Runes())
	}
	uni := a.Union(b)
	if uni.Len() != 5 {
		t.Fatalf("Union len = %d, want 5", uni.Len())
	}
	diff := a.Diff(b)
	if diff.Len() != 2 || !diff.Contains('a') || !diff.Contains(0x4E00) {
		t.Fatalf("Diff = %v", diff.Runes())
	}
	cl := a.Clone()
	cl.Add('z')
	if a.Contains('z') {
		t.Fatal("Clone is not independent")
	}
}

func TestRuneSetNilSafety(t *testing.T) {
	var s *RuneSet
	if s.Contains('a') {
		t.Fatal("nil set should contain nothing")
	}
	if s.Len() != 0 {
		t.Fatal("nil set should have zero length")
	}
	if got := s.Runes(); got != nil {
		t.Fatalf("nil set Runes = %v", got)
	}
	u := s.Union(NewRuneSet('a'))
	if u.Len() != 1 {
		t.Fatalf("nil union = %v", u.Runes())
	}
}

func TestRuneSetRangeAdd(t *testing.T) {
	s := NewRuneSet()
	s.AddRange('a', 'e')
	if s.Len() != 5 {
		t.Fatalf("AddRange len = %d, want 5", s.Len())
	}
}

// Property-based: union is commutative and contains both operands;
// intersection is a subset of both.
func TestRuneSetProperties(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := NewRuneSet(), NewRuneSet()
		for _, x := range xs {
			a.Add(rune(x))
		}
		for _, y := range ys {
			b.Add(rune(y))
		}
		u1, u2 := a.Union(b), b.Union(a)
		if u1.Len() != u2.Len() {
			return false
		}
		for _, r := range a.Runes() {
			if !u1.Contains(r) {
				return false
			}
		}
		inter := a.Intersect(b)
		for _, r := range inter.Runes() {
			if !a.Contains(r) || !b.Contains(r) {
				return false
			}
		}
		// |A| = |A∩B| + |A∖B|
		return a.Len() == inter.Len()+a.Diff(b).Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The derivation must agree with the stdlib category data: every
// PVALID non-ASCII BMP code point is a letter, mark or digit, except
// the RFC 5892 §2.6 exceptions that are PVALID by fiat.
func TestDerivedPropertyAgainstCategories(t *testing.T) {
	want := []rune{0x06FD, 0x06FE, 0x0F0B, 0x3007} // So, So, Po, Nl
	var got []rune
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if !assigned(r) || DerivedProperty(r) != PValid {
			continue
		}
		if !unicode.Is(unicode.L, r) && !unicode.Is(unicode.M, r) && !unicode.Is(unicode.Nd, r) {
			got = append(got, r)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("PVALID code points outside L/M/Nd = %U, want %U", got, want)
	}
}
