package homoglyph

import (
	"slices"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/confusables"
	"repro/internal/fontgen"
	"repro/internal/simchar"
	"repro/internal/ucd"
)

var (
	fastFontOnce sync.Once
	fastFont     *DB
)

// fastFontDB is the database the CLI's -fastfont flag builds: the
// synthetic font without CJK and Hangul, the IDNA set, the default UC.
func fastFontDB(tb testing.TB) *DB {
	tb.Helper()
	fastFontOnce.Do(func() {
		font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
		sim, _ := simchar.Build(font, ucd.IDNASet(), simchar.Options{})
		fastFont = New(confusables.Default(), sim, 0)
	})
	return fastFont
}

// mapRow is one row of the map model of an index.
type mapRow struct {
	partners                 map[rune]Source
	ucSkel, simASCII, simLow rune
}

// mapModel rebuilds the index as the map it replaced, from s.
func mapModel(s *Snapshot) map[rune]mapRow {
	m := make(map[rune]mapRow, len(s.Runes))
	off := int32(0)
	for i, r := range s.Runes {
		row := mapRow{partners: make(map[rune]Source), ucSkel: s.UCSkel[i], simASCII: s.SimASCII[i], simLow: s.SimLow[i]}
		for j := off; j < off+s.Counts[i]; j++ {
			row.partners[s.Partners[j]] = s.Masks[j]
		}
		off += s.Counts[i]
		m[r] = row
	}
	return m
}

// modelConfusable, modelHomoglyphs and modelCanonical answer the
// queries of a view with mask use from the map model.
func modelConfusable(m map[rune]mapRow, use Source, a, b rune) (bool, Source) {
	if a == b {
		return true, use
	}
	if src := m[a].partners[b] & use; src != 0 {
		return true, src
	}
	return false, SourceNone
}

func modelHomoglyphs(m map[rune]mapRow, use Source, r rune) []rune {
	var out []rune
	for p, src := range m[r].partners {
		if src&use != 0 {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

func modelCanonical(m map[rune]mapRow, use Source, r rune) rune {
	row, ok := m[r]
	switch {
	case r < 0x80 || !ok:
		return r
	case use&SourceUC != 0 && row.ucSkel != 0:
		return row.ucSkel
	case use&SourceSimChar != 0 && row.simASCII != 0:
		return row.simASCII
	case use&SourceSimChar != 0 && row.simLow != 0 && row.simLow < r:
		return row.simLow
	}
	return r
}

// checkAgainstModel compares db's answers for every indexed rune with
// each of its partners, with a rune that is no partner of it and with
// the runes in probes, against the map model of db's snapshot.
func checkAgainstModel(t *testing.T, db *DB, probes []rune) {
	t.Helper()
	s := db.Snapshot()
	m := mapModel(s)
	use := db.Use()
	check := func(a, b rune) {
		t.Helper()
		gotOK, gotSrc := db.Confusable(a, b)
		wantOK, wantSrc := modelConfusable(m, use, a, b)
		if gotOK != wantOK || gotSrc != wantSrc {
			t.Fatalf("use %v: Confusable(%U, %U) = %v, %v; the map says %v, %v", use, a, b, gotOK, gotSrc, wantOK, wantSrc)
		}
	}
	answers := func(r rune) {
		t.Helper()
		if got, want := db.Homoglyphs(r), modelHomoglyphs(m, use, r); !slices.Equal(got, want) {
			t.Fatalf("use %v: Homoglyphs(%U) = %U; the map says %U", use, r, got, want)
		}
		if got, want := db.Canonical(r), modelCanonical(m, use, r); got != want {
			t.Fatalf("use %v: Canonical(%U) = %U; the map says %U", use, r, got, want)
		}
	}
	for i, r := range s.Runes {
		answers(r)
		for p := range m[r].partners {
			check(r, p)
		}
		// A rune that is no partner of r: the first of the next rows.
		for _, other := range s.Runes[i+1:] {
			if _, partner := m[r].partners[other]; !partner {
				check(r, other)
				break
			}
		}
		for _, p := range probes {
			check(r, p)
		}
	}
	for _, p := range probes {
		answers(p)
		check(p, 'o')
	}
}

// TestIndexMatchesMap pins the paged directory against the map it
// replaced: for the union, UC and SimChar views of the fast-font
// database, Confusable, Homoglyphs and Canonical answer as a map
// rebuilt from Snapshot does, for indexed runes and for runes with no
// row: in a block with indexed runes, in a block without, above every
// indexed block, and values outside the rune space.
func TestIndexMatchesMap(t *testing.T) {
	db := fastFontDB(t)
	s := db.Snapshot()
	var probes []rune
	for _, r := range s.Runes {
		if _, indexed := slices.BinarySearch(s.Runes, r+1); !indexed && len(probes) < 8 && r > 0x80 {
			probes = append(probes, r+1)
		}
	}
	probes = append(probes, 0xAC00, 0xE000, 0xF0000, utf8.MaxRune, utf8.MaxRune+1, -1, -0x80000000)
	for _, r := range probes {
		if _, indexed := slices.BinarySearch(s.Runes, r); indexed {
			t.Fatalf("probe %U is indexed", r)
		}
	}
	for _, use := range []Source{SourceUC | SourceSimChar, SourceUC, SourceSimChar} {
		checkAgainstModel(t, db.WithSources(use), probes)
	}
}

// TestFromSnapshotRowOrder: the directory and the binary search both
// rely on ascending runes, so FromSnapshot refuses rows out of order or
// repeated.
func TestFromSnapshotRowOrder(t *testing.T) {
	clean := fastFontDB(t).Snapshot()
	i := slices.Index(clean.Runes, 0x043E) // Cyrillic о
	if i < 0 {
		t.Fatal("о has no row")
	}
	for name, mutate := range map[string]func(r []rune){
		"swapped":  func(r []rune) { r[i], r[i+1] = r[i+1], r[i] },
		"repeated": func(r []rune) { r[i+1] = r[i] },
	} {
		s := *clean
		s.Runes = slices.Clone(clean.Runes)
		mutate(s.Runes)
		if _, err := FromSnapshot(&s, nil, nil); err == nil {
			t.Errorf("%s rows accepted", name)
		}
	}
}

// TestFromSnapshotValueOutsideRuneSpace: a crafted snapshot can hold a
// row for a value outside 0..utf8.MaxRune. Such a file loads, and the
// row answers from the binary search, as every other row does from the
// directory.
func TestFromSnapshotValueOutsideRuneSpace(t *testing.T) {
	s := withRowsOutsideRuneSpace(fastFontDB(t).Snapshot())
	db, err := FromSnapshot(s, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rune{-2, utf8.MaxRune + 1} {
		if ok, src := db.Confusable(r, 'o'); !ok || src != SourceSimChar {
			t.Errorf("Confusable(%U, o) = %v, %v", r, ok, src)
		}
		if got := db.Homoglyphs(r); !slices.Equal(got, []rune{'o'}) {
			t.Errorf("Homoglyphs(%U) = %U", r, got)
		}
	}
	// Canonical returns any value below 0x80 as it is.
	if got := db.Canonical(-2); got != -2 {
		t.Errorf("Canonical(-2) = %U", got)
	}
	if got := db.Canonical(utf8.MaxRune + 1); got != 'o' {
		t.Errorf("Canonical(%U) = %U", utf8.MaxRune+1, got)
	}
	checkAgainstModel(t, db, []rune{-1, -2, utf8.MaxRune + 1, utf8.MaxRune + 2})
}

// withRowsOutsideRuneSpace returns s with two more rows, for -2 and
// utf8.MaxRune+1, each confusable with 'o' by SimChar.
func withRowsOutsideRuneSpace(s *Snapshot) *Snapshot {
	return &Snapshot{
		Use:      s.Use,
		Runes:    slices.Concat([]rune{-2}, s.Runes, []rune{utf8.MaxRune + 1}),
		Counts:   slices.Concat([]int32{1}, s.Counts, []int32{1}),
		UCSkel:   slices.Concat([]rune{0}, s.UCSkel, []rune{0}),
		SimASCII: slices.Concat([]rune{'o'}, s.SimASCII, []rune{'o'}),
		SimLow:   slices.Concat([]rune{'o'}, s.SimLow, []rune{'o'}),
		Partners: slices.Concat([]rune{'o'}, s.Partners, []rune{'o'}),
		Masks:    slices.Concat([]Source{SourceSimChar}, s.Masks, []Source{SourceSimChar}),
	}
}

// BenchmarkConfusable times Algorithm 1's per-rune check on the
// fast-font database: a partner hit, an indexed rune's non-partner and
// a rune with no row, one of each per op.
func BenchmarkConfusable(b *testing.B) {
	db := fastFontDB(b)
	const cyrO, unindexed = 0x043E, 0xAC00 // о; Hangul 가, absent from the fast font
	if ok, _ := db.Confusable(cyrO, 'o'); !ok {
		b.Fatal("о ≉ o")
	}
	if ok, _ := db.Confusable(cyrO, 'x'); ok {
		b.Fatal("о ≈ x")
	}
	if db.Homoglyphs(unindexed) != nil {
		b.Fatalf("%U has a row", unindexed)
	}
	n := 0
	b.ResetTimer()
	for range b.N {
		if ok, _ := db.Confusable(cyrO, 'o'); ok {
			n++
		}
		if ok, _ := db.Confusable(cyrO, 'x'); ok {
			n++
		}
		if ok, _ := db.Confusable(unindexed, 'o'); ok {
			n++
		}
	}
	if n != b.N {
		b.Fatalf("%d hits in %d ops", n, b.N)
	}
}
