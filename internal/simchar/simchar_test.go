package simchar

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fontgen"
	"repro/internal/hexfont"
	"repro/internal/ucd"
)

// tinyFont builds a font with controlled relationships:
//
//	'a'(0x61) and 0x100: identical (Δ=0)
//	0x101: 3 pixels away from 'a'
//	0x102: far from everything
//	0x103: sparse (4 px), 1 pixel from another sparse char 0x104
func tinyFont() *hexfont.Font {
	f := hexfont.New()
	base := &hexfont.Glyph{Width: 8}
	for i := 4; i < 12; i++ {
		for j := 1; j < 5; j++ {
			base.Set(i, j)
		}
	}
	f.SetGlyph('a', base)
	f.SetGlyph(0x100, base.Clone())
	near := base.Clone()
	near.Flip(13, 1)
	near.Flip(13, 2)
	near.Flip(13, 3)
	f.SetGlyph(0x101, near)
	far := &hexfont.Glyph{Width: 8}
	for i := 2; i < 14; i++ {
		far.Set(i, 6)
		far.Set(i, 7)
	}
	f.SetGlyph(0x102, far)
	sparse := &hexfont.Glyph{Width: 8}
	sparse.Set(0, 0)
	sparse.Set(1, 1)
	sparse.Set(2, 2)
	sparse.Set(3, 3)
	f.SetGlyph(0x103, sparse)
	sparse2 := sparse.Clone()
	sparse2.Flip(4, 4)
	f.SetGlyph(0x104, sparse2)
	return f
}

func TestBuildTinyFont(t *testing.T) {
	db, tm := Build(tinyFont(), nil, Options{})
	if !db.Confusable('a', 0x100) {
		t.Error("identical glyphs must be confusable")
	}
	if !db.Confusable('a', 0x101) || !db.Confusable(0x100, 0x101) {
		t.Error("Δ=3 pair must be confusable")
	}
	if db.Confusable('a', 0x102) {
		t.Error("far glyphs must not be confusable")
	}
	if db.Confusable(0x103, 0x104) {
		t.Error("sparse characters must be eliminated (Step III)")
	}
	if db.NumPairs() != 3 { // (a,100) (a,101) (100,101)
		t.Errorf("NumPairs = %d, want 3", db.NumPairs())
	}
	if db.Chars().Len() != 3 {
		t.Errorf("Chars = %d, want 3", db.Chars().Len())
	}
	if tm.RasterizeImages < 0 || tm.ComputePairwise < 0 {
		t.Error("timings must be non-negative")
	}
}

func TestDeltaValuesRecorded(t *testing.T) {
	db, _ := Build(tinyFont(), nil, Options{})
	for _, p := range db.Pairs() {
		switch {
		case p.A == 'a' && p.B == 0x100:
			if p.Delta != 0 {
				t.Errorf("twin pair Δ=%d, want 0", p.Delta)
			}
		case p.B == 0x101:
			if p.Delta != 3 {
				t.Errorf("near pair Δ=%d, want 3", p.Delta)
			}
		}
	}
}

func TestPermittedSetRestriction(t *testing.T) {
	permitted := ucd.NewRuneSet('a', 0x101) // exclude the identical twin 0x100
	db, _ := Build(tinyFont(), permitted, Options{})
	if db.Confusable('a', 0x100) {
		t.Error("excluded code point must not appear")
	}
	if !db.Confusable('a', 0x101) {
		t.Error("permitted pair must appear")
	}
}

func TestThresholdOption(t *testing.T) {
	db, _ := Build(tinyFont(), nil, Options{Threshold: 2})
	if db.Confusable('a', 0x101) {
		t.Error("Δ=3 pair must be excluded at θ=2")
	}
	if !db.Confusable('a', 0x100) {
		t.Error("Δ=0 pair must remain at θ=2")
	}
}

func TestHomoglyphsListing(t *testing.T) {
	db, _ := Build(tinyFont(), nil, Options{})
	hs := db.Homoglyphs('a')
	if len(hs) != 2 || hs[0] != 0x100 || hs[1] != 0x101 {
		t.Fatalf("Homoglyphs(a) = %U", hs)
	}
	if got := db.Homoglyphs(0x7FFF); len(got) != 0 {
		t.Fatalf("Homoglyphs(unknown) = %U", got)
	}
}

func canonical(ps []Pair) []Pair {
	out := make([]Pair, len(ps))
	copy(out, ps)
	return out
}

// The banded pigeonhole index must find exactly the same pairs as the
// naive O(n²) scan — the central exactness property of the optimization.
func TestBandedMatchesNaive(t *testing.T) {
	font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	idna := ucd.IDNASet()
	banded, _ := Build(font, idna, Options{})
	naive, _ := Build(font, idna, Options{Naive: true})
	if !reflect.DeepEqual(canonical(banded.Pairs()), canonical(naive.Pairs())) {
		t.Fatalf("banded (%d pairs) and naive (%d pairs) disagree",
			banded.NumPairs(), naive.NumPairs())
	}
	if banded.NumPairs() == 0 {
		t.Fatal("mid-size font should produce pairs")
	}
}

func TestPrefilterAblationEquivalent(t *testing.T) {
	font := fontgen.Generate(fontgen.Options{LatinOnly: true})
	with, _ := Build(font, nil, Options{})
	without, _ := Build(font, nil, Options{NoPrefilter: true})
	if !reflect.DeepEqual(canonical(with.Pairs()), canonical(without.Pairs())) {
		t.Fatal("popcount prefilter changed results")
	}
}

func TestKnownStructureFromFont(t *testing.T) {
	font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	db, _ := Build(font, ucd.IDNASet(), Options{})
	cases := []struct {
		a, b rune
		want bool
	}{
		{'o', 0x043E, true},  // Cyrillic о twin
		{'o', 0x0585, true},  // Armenian օ twin
		{'o', 0x0ED0, true},  // Lao zero (Figure 12)
		{'e', 0x00E9, true},  // é at Δ=3
		{'e', 0x0435, true},  // Cyrillic е twin
		{'e', 0x00EA, false}, // ê at Δ=5: beyond threshold
		{'a', 0x00E5, false}, // å ring costs 6
		{'o', 'e', false},
		{'a', 'b', false},
	}
	for _, c := range cases {
		if got := db.Confusable(c.a, c.b); got != c.want {
			t.Errorf("Confusable(%#U, %#U) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	// 'o' must have the most homoglyphs among Latin letters (Table 3).
	oCount := len(db.Homoglyphs('o'))
	for r := 'a'; r <= 'z'; r++ {
		if r == 'o' {
			continue
		}
		if n := len(db.Homoglyphs(r)); n > oCount {
			t.Errorf("letter %q has %d homoglyphs > o's %d", r, n, oCount)
		}
	}
}

func TestSparseEliminationMatchesPostFilter(t *testing.T) {
	// Pre-filtering sparse glyphs must equal the paper's post-filter:
	// build with MinPixels=1 (no filtering) and drop pairs involving
	// sparse characters afterwards; compare with the built-in filter.
	font := fontgen.Generate(fontgen.Options{LatinOnly: true})
	filtered, _ := Build(font, nil, Options{})
	unfiltered, _ := Build(font, nil, Options{MinPixels: 1})
	var post []Pair
	for _, p := range unfiltered.Pairs() {
		ga, _ := font.Glyph(p.A)
		gb, _ := font.Glyph(p.B)
		if ga.Rasterize().PixelCount() >= DefaultMinPixels &&
			gb.Rasterize().PixelCount() >= DefaultMinPixels {
			post = append(post, p)
		}
	}
	if !reflect.DeepEqual(canonical(filtered.Pairs()), canonical(post)) {
		t.Fatalf("pre-filter (%d) != post-filter (%d)", filtered.NumPairs(), len(post))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	db, _ := Build(tinyFont(), nil, Options{})
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(canonical(db.Pairs()), canonical(back.Pairs())) {
		t.Fatal("round-trip mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	bad := []string{
		"0061\n",
		"ZZZZ 0062 0\n",
		"0061 ZZZZ 0\n",
		"0061 0062 x\n",
	}
	for _, in := range bad {
		if _, err := Read(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("Read(%q) should fail", in)
		}
	}
}

func TestComparisonsSaved(t *testing.T) {
	font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	_, tm := Build(font, ucd.IDNASet(), Options{})
	if tm.ComparisonsSaved <= 0 {
		t.Errorf("banded index should skip comparisons; saved=%d candidates=%d",
			tm.ComparisonsSaved, tm.CandidatePairs)
	}
}

func BenchmarkBuildMidFont(b *testing.B) {
	font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	idna := ucd.IDNASet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(font, idna, Options{})
	}
}

// TestFromPairsRows checks the flat partner rows against lists built
// pair by pair and sorted, on random pair sets that hold repeated
// pairs, self-pairs and values outside the rune space.
func TestFromPairsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	alphabet := []rune{-9, -1, 0, 'a', 'b', 'o', 0x03BF, 0x0585, 0xFFFF, 0x10FFFF, 0x110000, 0x7fffffff}
	for trial := 0; trial < 300; trial++ {
		var pairs []Pair
		for n := rng.Intn(20); len(pairs) < n; {
			a, b := alphabet[rng.Intn(len(alphabet))], alphabet[rng.Intn(len(alphabet))]
			pairs = append(pairs, Pair{A: a, B: b, Delta: rng.Intn(5)})
		}
		db := FromPairs(pairs)
		want := map[rune][]rune{}
		for _, p := range pairs {
			want[p.A] = append(want[p.A], p.B)
			want[p.B] = append(want[p.B], p.A)
		}
		chars := slices.Sorted(maps.Keys(want))
		if got := db.AppendChars(nil); !slices.Equal(got, chars) {
			t.Fatalf("%v: chars %U, want %U", pairs, got, chars)
		}
		if got := db.Chars().Runes(); !slices.Equal(got, chars) {
			t.Fatalf("%v: Chars %U, want %U", pairs, got, chars)
		}
		for _, r := range alphabet {
			row := want[r]
			slices.Sort(row)
			if got := db.Homoglyphs(r); !slices.Equal(got, row) {
				t.Fatalf("%v: partners of %U = %U, want %U", pairs, r, got, row)
			}
			for _, p := range alphabet {
				if got, want := db.Confusable(r, p), r == p || slices.Contains(row, p); got != want {
					t.Fatalf("%v: Confusable(%U, %U) = %v", pairs, r, p, got)
				}
			}
		}
	}
}

// TestFromPairsPrecondition: the unexported builder refuses pairs that
// are unsorted or not normalized, which would leave its rune table out
// of order for the binary search; FromPairs normalizes and sorts first.
func TestFromPairsPrecondition(t *testing.T) {
	for name, pairs := range map[string][]Pair{
		"unsorted":       {{A: 'z', B: 0x200}, {A: 'a', B: 0x100}},
		"not normalized": {{A: 0x100, B: 'a'}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: fromPairs(%v) did not panic", name, pairs)
				}
			}()
			fromPairs(pairs)
		}()
		db := FromPairs(pairs)
		for _, p := range pairs {
			if !db.Confusable(p.A, p.B) || !db.Confusable(p.B, p.A) {
				t.Errorf("%s: FromPairs lost %v", name, p)
			}
		}
	}
}
