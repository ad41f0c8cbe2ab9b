package punycode

import (
	"testing"
	"unicode"
)

// TestFoldMatchesUnicodeToLower brute-forces every code point: Fold
// must agree with the ASCII shift below 0x80 and with unicode.ToLower
// everywhere else — the bitset fast path is an optimization, never a
// semantic change. (Astral planes go through unicode.ToLower directly,
// covered here too.)
func TestFoldMatchesUnicodeToLower(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		want := unicode.ToLower(r)
		if r < 0x80 {
			want = r
			if r >= 'A' && r <= 'Z' {
				want = r + 'a' - 'A'
			}
		}
		if got := Fold(r); got != want {
			t.Fatalf("Fold(U+%04X) = U+%04X, want U+%04X", r, got, want)
		}
	}
}

func TestFoldString(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"google", "google"},
		{"GOOGLE", "google"},
		{"paypaL", "paypal"}, // folded ASCII prefix, then a fold
		{"bücHer", "bücher"},
		{"ohm-Ω", "ohm-ω"},
		{"BÜCHER", "bücher"},
		{"bücher", "bücher"},
		{"GОOGLE", "gоogle"}, // Cyrillic О folds too
		{"ⅯⅯⅩⅩⅤ", "ⅿⅿⅹⅹⅴ"},   // Roman numerals: Nl, outside Upper∪Lt
		{"工業大学", "工業大学"},
	}
	for _, c := range cases {
		if got := FoldString(c.in); got != c.want {
			t.Errorf("FoldString(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Already-folded strings come back without copying.
	s := "already-lower-ü"
	if got := FoldString(s); got != s {
		t.Errorf("FoldString(%q) reallocated to %q", s, got)
	}
	if n := testing.AllocsPerRun(100, func() { FoldString("nothing-to-fold-här") }); n != 0 {
		t.Errorf("FoldString allocates %.1f on folded input; want 0", n)
	}
}

func BenchmarkFold(b *testing.B) {
	runes := []rune("gооgleБВГджзФooBAR") // mixed ASCII/Cyrillic, both cases
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range runes {
			Fold(r)
		}
	}
}
