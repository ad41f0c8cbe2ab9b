package homoglyph

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/confusables"
	"repro/internal/hexfont"
	"repro/internal/simchar"
)

// testComponents builds small, fully-controlled component databases:
//
//	UC:      а(U+0430)→a, е(U+0435)→e, ѕ(U+0455)→s
//	SimChar: o/ο(U+03BF) twins, o/օ(U+0585) twins, x/х(U+0445) twins
func testComponents() (*confusables.DB, *simchar.DB) {
	uc := confusables.New()
	uc.Add(0x0430, []rune{'a'}, "CYRILLIC A")
	uc.Add(0x0435, []rune{'e'}, "CYRILLIC E")
	uc.Add(0x0455, []rune{'s'}, "CYRILLIC DZE")

	font := hexfont.New()
	shape := func(seed int) *hexfont.Glyph {
		g := &hexfont.Glyph{Width: 8}
		for i := 0; i < 12; i++ {
			g.Set(i+2, (i+seed)%6)
			g.Set(i+2, (i+seed+3)%6)
		}
		return g
	}
	font.SetGlyph('o', shape(0))
	font.SetGlyph(0x03BF, shape(0)) // ο
	font.SetGlyph(0x0585, shape(0)) // օ
	font.SetGlyph('x', shape(2))
	font.SetGlyph(0x0445, shape(2)) // х
	font.SetGlyph('z', shape(4))    // no partners
	sim, _ := simchar.Build(font, nil, simchar.Options{})
	return uc, sim
}

func testDB() *DB {
	uc, sim := testComponents()
	return New(uc, sim, 0)
}

func TestSourceString(t *testing.T) {
	cases := map[Source]string{
		SourceNone:               "none",
		SourceUC:                 "UC",
		SourceSimChar:            "SimChar",
		SourceUC | SourceSimChar: "UC∪SimChar",
	}
	for src, want := range cases {
		if got := src.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", src, got, want)
		}
	}
}

func TestConfusableSources(t *testing.T) {
	db := testDB()
	cases := []struct {
		a, b rune
		ok   bool
		src  Source
	}{
		{'a', 0x0430, true, SourceUC},
		{0x0430, 'a', true, SourceUC}, // symmetric
		{'o', 0x03BF, true, SourceSimChar},
		{0x03BF, 0x0585, true, SourceSimChar}, // twin of a twin
		{'x', 0x0445, true, SourceSimChar},
		{'a', 'b', false, SourceNone},
		{'z', 'o', false, SourceNone},
	}
	for _, c := range cases {
		ok, src := db.Confusable(c.a, c.b)
		if ok != c.ok || (ok && src != c.src) {
			t.Errorf("Confusable(%U, %U) = %v, %v; want %v, %v", c.a, c.b, ok, src, c.ok, c.src)
		}
	}
}

func TestConfusableIdentity(t *testing.T) {
	db := testDB()
	if ok, _ := db.Confusable('q', 'q'); !ok {
		t.Error("identity not confusable")
	}
}

func TestConfusableSymmetryProperty(t *testing.T) {
	db := testDB()
	pool := []rune{'a', 'e', 'o', 's', 'x', 'z', 0x0430, 0x0435, 0x0455, 0x03BF, 0x0585, 0x0445}
	f := func(i, j uint8) bool {
		a := pool[int(i)%len(pool)]
		b := pool[int(j)%len(pool)]
		okAB, _ := db.Confusable(a, b)
		okBA, _ := db.Confusable(b, a)
		return okAB == okBA
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWithSources(t *testing.T) {
	db := testDB()
	ucOnly := db.WithSources(SourceUC)
	simOnly := db.WithSources(SourceSimChar)

	if ok, _ := ucOnly.Confusable('o', 0x03BF); ok {
		t.Error("UC-only view answered a SimChar pair")
	}
	if ok, _ := simOnly.Confusable('a', 0x0430); ok {
		t.Error("SimChar-only view answered a UC pair")
	}
	if ok, _ := ucOnly.Confusable('a', 0x0430); !ok {
		t.Error("UC-only view lost its own pair")
	}
}

func TestHomoglyphsUnion(t *testing.T) {
	db := testDB()
	got := db.Homoglyphs('o')
	if len(got) != 2 || got[0] != 0x03BF || got[1] != 0x0585 {
		t.Errorf("Homoglyphs(o) = %U", got)
	}
	if got := db.Homoglyphs('a'); len(got) != 1 || got[0] != 0x0430 {
		t.Errorf("Homoglyphs(a) = %U", got)
	}
	if got := db.Homoglyphs('z'); len(got) != 0 {
		t.Errorf("Homoglyphs(z) = %U", got)
	}
}

func TestHomoglyphsSorted(t *testing.T) {
	db := testDB()
	for _, r := range []rune{'o', 'a', 'x'} {
		hs := db.Homoglyphs(r)
		for i := 1; i < len(hs); i++ {
			if hs[i-1] >= hs[i] {
				t.Fatalf("Homoglyphs(%c) not sorted: %U", r, hs)
			}
		}
	}
}

func TestHomoglyphsAppend(t *testing.T) {
	for _, db := range []*DB{testDB(), testDB().WithSources(SourceUC), testDB().WithSources(SourceSimChar)} {
		buf := []rune{'!'}
		for _, r := range []rune{'o', 'a', 'x', 'z', 0x0585, 0x4E00} {
			buf = db.HomoglyphsAppend(buf[:1], r)
			if want := db.Homoglyphs(r); buf[0] != '!' || !slices.Equal(buf[1:], want) {
				t.Errorf("use %v: HomoglyphsAppend(%U) = %U, want ! then %U", db.Use(), r, buf, want)
			}
		}
	}
}

// TestFromSnapshotRejectsUnsortedPartners: Confusable binary-searches a
// row's partners, so a row out of order or holding a partner twice
// would miss pairs silently; the loader must refuse it.
func TestFromSnapshotRejectsUnsortedPartners(t *testing.T) {
	uc, sim := testComponents()
	clean := New(uc, sim, 0).Snapshot()
	if _, err := FromSnapshot(clean, uc, sim); err != nil {
		t.Fatalf("clean snapshot rejected: %v", err)
	}
	row := slices.Index(clean.Runes, 'o')
	start := 0
	for _, c := range clean.Counts[:row] {
		start += int(c)
	}
	if clean.Counts[row] != 2 {
		t.Fatalf("row o holds %d partners, want 2", clean.Counts[row])
	}
	for name, mutate := range map[string]func(p []rune){
		"descending": func(p []rune) { p[start], p[start+1] = p[start+1], p[start] },
		"repeated":   func(p []rune) { p[start+1] = p[start] },
	} {
		s := *clean
		s.Partners = slices.Clone(clean.Partners)
		mutate(s.Partners)
		if _, err := FromSnapshot(&s, uc, sim); err == nil {
			t.Errorf("%s partner row accepted", name)
		}
	}
}

func TestCanonical(t *testing.T) {
	db := testDB()
	cases := []struct{ in, want rune }{
		{0x0430, 'a'},    // UC skeleton
		{0x03BF, 'o'},    // SimChar ASCII partner
		{0x0585, 'o'},    // SimChar ASCII partner (other twin)
		{'a', 'a'},       // ASCII is always itself
		{0x4E00, 0x4E00}, // unknown char maps to itself
	}
	for _, c := range cases {
		if got := db.Canonical(c.in); got != c.want {
			t.Errorf("Canonical(%U) = %U, want %U", c.in, got, c.want)
		}
	}
}

func TestCanonicalIdempotentProperty(t *testing.T) {
	db := testDB()
	pool := []rune{'a', 'o', 'x', 'z', 0x0430, 0x0435, 0x0455, 0x03BF, 0x0585, 0x0445, 0x4E8C}
	f := func(i uint8) bool {
		r := pool[int(i)%len(pool)]
		c := db.Canonical(r)
		return db.Canonical(c) == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRevert(t *testing.T) {
	db := testDB()
	cases := []struct{ in, want string }{
		{"gооgle", "gооgle"}, // Cyrillic о is not in this tiny DB
		{"οx", "ox"},
		{"аеѕ", "aes"},
		{"plain", "plain"},
		{"", ""},
	}
	for _, c := range cases {
		if got := db.Revert(c.in); got != c.want {
			t.Errorf("Revert(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNilComponents(t *testing.T) {
	uc, sim := testComponents()
	ucOnly := New(uc, nil, 0)
	if ok, _ := ucOnly.Confusable('a', 0x0430); !ok {
		t.Error("nil SimChar broke UC lookups")
	}
	if ok, _ := ucOnly.Confusable('o', 0x03BF); ok {
		t.Error("nil SimChar answered a SimChar pair")
	}
	simOnly := New(nil, sim, 0)
	if ok, _ := simOnly.Confusable('o', 0x03BF); !ok {
		t.Error("nil UC broke SimChar lookups")
	}
	if got := simOnly.Revert("ο"); got != "o" {
		t.Errorf("nil-UC Revert = %q", got)
	}
	if New(nil, nil, 0).Chars().Len() != 0 {
		t.Error("empty DB has chars")
	}
}

func TestChars(t *testing.T) {
	db := testDB()
	chars := db.Chars()
	for _, r := range []rune{0x0430, 0x03BF, 0x0585, 'o'} {
		if !chars.Contains(r) {
			t.Errorf("Chars missing %U", r)
		}
	}
	ucOnly := db.WithSources(SourceUC).Chars()
	if ucOnly.Contains(0x03BF) {
		t.Error("UC-only chars include SimChar entries")
	}
}

// TestCharRunes: the fold rows' bitset gives the characters of
// Chars in order, on every view, with and without components, and
// with values outside the rune space that a loaded database can hold.
func TestCharRunes(t *testing.T) {
	uc, sim := testComponents()
	odd := confusables.New()
	odd.Add(0x110000, []rune{'e', -7}, "")
	odd.Add(-2, []rune{0x7fffffff, 0x0435}, "")
	odd.Add(0x10FFFF, []rune{0}, "")
	dbs := map[string]*DB{
		"test":    New(uc, sim, 0),
		"no uc":   New(nil, sim, 0),
		"no sim":  New(uc, nil, 0),
		"neither": New(nil, nil, 0),
		"odd":     New(odd, sim, 0),
	}
	for name, db := range dbs {
		for _, use := range []Source{SourceUC, SourceSimChar, SourceUC | SourceSimChar} {
			view := db.WithSources(use)
			if got, want := view.charRunes(), view.Chars().Runes(); !slices.Equal(got, want) {
				t.Errorf("%s %v: charRunes = %U, Chars = %U", name, use, got, want)
			}
		}
	}
}

func TestComponentAccessors(t *testing.T) {
	uc, sim := testComponents()
	db := New(uc, sim, 0)
	if db.UC() != uc || db.SimChar() != sim {
		t.Error("accessors returned wrong components")
	}
}
