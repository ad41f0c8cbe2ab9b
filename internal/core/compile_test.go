package core

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/confusables"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/ranking"
	"repro/internal/simchar"
)

// zonegenRefs returns the 10k-reference list the zonegen corpus and
// the end-to-end sweeps are built on (seed 7, the paper's anchors).
func zonegenRefs() []string {
	return ranking.Generate(10000, 7, ranking.PaperAnchors()).SLDs(10000)
}

// mapBuild is the reference construction NewDetector must agree with:
// a seen-set dedupe, a union-find over a rune-keyed map, an expansion
// that allocates per rune, and one key string and id list per
// reference in a map. Its fold table is compiled from its own rows.
type mapBuild struct {
	refs  []string
	arena []rune
	offs  []int32
	rep   map[rune]rune
	seq   map[rune][]rune
	keys  map[string][]int32
	fold  foldTable
}

// mapDetector builds references over db the map way.
func mapDetector(db *homoglyph.DB, references []string) *mapBuild {
	w := &mapBuild{offs: []int32{0}}
	seen := make(map[string]bool)
	for _, ref := range references {
		ref = punycode.FoldString(strings.TrimSpace(ref))
		if punycode.IsACE(ref) {
			if uni, err := punycode.ToUnicodeLabel(ref); err == nil {
				ref = uni
			}
		}
		if ref == "" || seen[ref] {
			continue
		}
		seen[ref] = true
		w.refs = append(w.refs, ref)
		w.arena = append(w.arena, []rune(ref)...)
		w.offs = append(w.offs, int32(len(w.arena)))
	}
	w.rep, w.seq = mapRows(db)

	x := &skelIndex{fold: newFoldTable(rowsOf(w.rep, w.seq))}
	w.keys = make(map[string][]int32)
	var keyRunes runeSet
	for id := range w.refs {
		k := string(x.appendLabel(nil, w.arena[w.offs[id]:w.offs[id+1]]))
		keyRunes.add([]byte(k))
		w.keys[k] = append(w.keys[k], int32(id))
	}
	x.compileGate(keyRunes)
	w.fold = x.fold
	return w
}

// mapRows is the reference union-find and expansion of db's view.
func mapRows(db *homoglyph.DB) (map[rune]rune, map[rune][]rune) {
	chars := db.Chars().Runes()

	parent := make(map[rune]rune)
	var find func(rune) rune
	find = func(r rune) rune {
		p, ok := parent[r]
		if !ok || p == r {
			return r
		}
		root := find(p)
		parent[r] = root
		return root
	}
	for _, r := range chars {
		for _, p := range db.Homoglyphs(r) {
			if ra, rb := find(r), find(p); ra != rb {
				parent[ra] = rb
			}
		}
	}
	minOf := make(map[rune]rune)
	for _, r := range chars {
		root := find(r)
		if m, ok := minOf[root]; !ok || r < m {
			minOf[root] = r
		}
	}
	rep := make(map[rune]rune)
	seq := make(map[rune][]rune)
	for _, r := range chars {
		if m := minOf[find(r)]; m != r {
			rep[r] = m
		}
	}

	var uc *confusables.DB
	if db.Use()&homoglyph.SourceUC != 0 {
		uc = db.UC()
	}
	var expand func(r rune, depth int, dst []rune) []rune
	expand = func(r rune, depth int, dst []rune) []rune {
		if m, ok := rep[r]; ok {
			r = m
		}
		if uc != nil && depth < 8 {
			if s := uc.SkeletonAppend(nil, r); len(s) > 1 {
				for _, t := range s {
					dst = expand(t, depth+1, dst)
				}
				return dst
			}
		}
		return append(dst, r)
	}
	for _, r := range chars {
		if s := expand(r, 0, nil); len(s) > 1 {
			seq[r] = s
		}
	}
	return rep, seq
}

// rowsOf flattens rep and seq maps into rows, keys ascending.
func rowsOf(rep map[rune]rune, seq map[rune][]rune) *homoglyph.FoldRows {
	x := &homoglyph.FoldRows{}
	for _, r := range slices.Sorted(maps.Keys(rep)) {
		x.RepRunes, x.Reps = append(x.RepRunes, r), append(x.Reps, rep[r])
	}
	for _, r := range slices.Sorted(maps.Keys(seq)) {
		x.SeqRunes = append(x.SeqRunes, r)
		x.SeqLens = append(x.SeqLens, int32(len(seq[r])))
		x.Seqs = append(x.Seqs, seq[r]...)
	}
	return x
}

// rowMaps returns the rep and seq maps the rows flatten.
func rowMaps(x *homoglyph.FoldRows) (map[rune]rune, map[rune][]rune) {
	rep := make(map[rune]rune)
	for i, r := range x.RepRunes {
		rep[r] = x.Reps[i]
	}
	seq := make(map[rune][]rune)
	off := 0
	for i, r := range x.SeqRunes {
		l := int(x.SeqLens[i])
		seq[r] = x.Seqs[off : off+l]
		off += l
	}
	return rep, seq
}

// tableKeys returns the reference table as the map it stands for,
// walking every slot, and fails if a slot's key does not look itself
// up.
func tableKeys(t *testing.T, name string, x *refTable) map[string][]int32 {
	t.Helper()
	keys := make(map[string][]int32)
	for _, e := range x.slots {
		if e == 0 {
			continue
		}
		lo, hi := x.bounds[uint32(e)-1], x.bounds[uint32(e)]
		k := string(x.keys[lo.key:hi.key])
		if _, ok := keys[k]; ok {
			t.Fatalf("%s: key %q has two slots", name, k)
		}
		keys[k] = x.ids[lo.id:hi.id]
		if got := x.lookup([]byte(k)); !slices.Equal(got, keys[k]) {
			t.Fatalf("%s: lookup(%q) = %v, its slot says %v", name, k, got, keys[k])
		}
	}
	return keys
}

// oracleRefs are the references whose normalization and collisions
// the compile must get right: duplicates, upper case, padding, ACE
// spellings (one that does not decode), skeleton-colliding pairs,
// many-to-one fixtures, non-Latin references and empty ones.
var oracleRefs = []string{
	"google", "google", "Google", "  google\t", "GOOGLE",
	"gооgle", "GООGLE", // Cyrillic о, upper and lower: collides with google
	"xn--ggle-55da", "XN--GGLE-55DA", // gооgle in ACE form
	"xn--bcher-kva", "bücher", "xn--!!!", "xn--",
	"paypal", "pаypal", "paypa1", "paypaI",
	"microsoft", "rnicrosoft", "wikipedia", "vvikipedia", "dose", "close",
	"пример", "例え", "ｇｏｏｇｌｅ", "", "   ", "a", "m", "rn",
}

// assertSameCompile checks that NewDetector, and NewDetectorFromSnapshot
// over its snapshot and a snapshot-loaded view, agree with the
// reference build on everything a detector holds: the kept references
// and their arena, rep, seq, the key → ids map, every fold-table entry
// with its dead bit, and the snapshot.
func assertSameCompile(t *testing.T, name string, db *homoglyph.DB, refs []string) {
	t.Helper()
	want := mapDetector(db, refs)
	got := NewDetector(db, refs)
	loaded, err := NewDetectorFromSnapshot(loadedView(t, db), got.Snapshot())
	if err != nil {
		t.Fatalf("%s: loading the snapshot: %v", name, err)
	}
	for _, c := range []struct {
		how string
		d   *Detector
	}{{"compiled", got}, {"loaded", loaded}} {
		assertSameDetector(t, name+"/"+c.how, c.d, want)
	}
}

// assertSameDetector checks that got holds what want holds. The
// reference table is read slot by slot and must stand for exactly the
// oracle's map, and every oracle key, and a miss, must look up as the
// map says.
func assertSameDetector(t *testing.T, name string, got *Detector, want *mapBuild) {
	t.Helper()
	if !slices.Equal(got.refs, want.refs) {
		t.Fatalf("%s: refs differ: %d vs %d", name, len(got.refs), len(want.refs))
	}
	if !slices.Equal(got.arena, want.arena) || !slices.Equal(got.offs, want.offs) {
		t.Fatalf("%s: rune arena differs", name)
	}
	gRep, gSeq := rowMaps(got.db.FoldRows())
	if !reflect.DeepEqual(gRep, want.rep) {
		t.Fatalf("%s: rep differs: %d vs %d entries", name, len(gRep), len(want.rep))
	}
	if !reflect.DeepEqual(gSeq, want.seq) {
		t.Fatalf("%s: seq differs: %d vs %d entries", name, len(gSeq), len(want.seq))
	}
	g := got.skel
	if keys := tableKeys(t, name, &g.refs); !reflect.DeepEqual(keys, want.keys) {
		t.Fatalf("%s: key table differs: %d vs %d keys", name, len(keys), len(want.keys))
	}
	for k, ids := range want.keys {
		if got := g.refs.lookup([]byte(k)); !slices.Equal(got, ids) || cap(got) != len(got) {
			t.Fatalf("%s: lookup(%q) = %v (cap %d), want %v", name, k, got, cap(got), ids)
		}
	}
	if ids := g.refs.lookup([]byte("no such key\x00")); ids != nil {
		t.Fatalf("%s: a missing key looks up %v", name, ids)
	}
	for r := rune(0); r <= utf8.MaxRune+1; r++ {
		if ge, we := g.fold.entry(r), want.fold.entry(r); ge != we {
			t.Fatalf("%s: fold entry of %U: %#x, want %#x", name, r, ge, we)
		}
	}
	if !reflect.DeepEqual(g.fold, want.fold) {
		t.Fatalf("%s: fold tables differ", name)
	}
	if !reflect.DeepEqual(got.Snapshot(), &Snapshot{Refs: want.refs}) {
		t.Fatalf("%s: snapshots differ", name)
	}
}

// TestCompileMatchesMapBuild pins the flat-array compile to the map
// build over the UC-only, SimChar-only and union views of the test
// database (built as the fast-font framework builds its own), for the
// edge-case references, the 10k zonegen list (which holds no repeats),
// and the two together, both compiled and loaded from a snapshot.
func TestCompileMatchesMapBuild(t *testing.T) {
	db := testDB(t)
	plain := zonegenRefs()
	if NewDetector(db, plain).NumReferences() != len(plain) {
		t.Fatal("the zonegen list holds repeats")
	}
	zone := append(slices.Clip(plain), oracleRefs...)
	for _, view := range []struct {
		name string
		db   *homoglyph.DB
	}{
		{"union", db},
		{"uc", db.WithSources(homoglyph.SourceUC)},
		{"simchar", db.WithSources(homoglyph.SourceSimChar)},
	} {
		assertSameCompile(t, view.name+"/edge", view.db, oracleRefs)
		assertSameCompile(t, view.name+"/zonegen", view.db, zone)
		assertSameCompile(t, view.name+"/zonegen-only", view.db, plain)
	}
	assertSameCompile(t, "none", db, nil)
}

// TestCompilePartnerOutsideChars: a loaded database can list a partner
// its component databases do not mention, or a value outside the rune
// space. Such a partner joins components in the union-find but never
// represents one: here it links the a and e classes, and a represents
// all of them. A component rune outside the rune space (U+110000, a UC
// source here) is numbered like any other.
func TestCompilePartnerOutsideChars(t *testing.T) {
	for _, link := range []rune{0x03B1, -1, 0x7fffffff} {
		uc := confusables.New()
		uc.Add(0x0430, []rune{'a'}, "CYRILLIC A")
		uc.Add(0x0435, []rune{'e'}, "CYRILLIC E")
		uc.Add(0x110000, []rune{'e'}, "NOT A RUNE")
		rows := map[rune][]rune{
			'a':      {link, 0x0430},
			'e':      {link, 0x0435, 0x110000},
			link:     {'a', 'e'},
			0x0430:   {'a'},
			0x0435:   {'e', 0x110000},
			0x110000: {'e', 0x0435},
		}
		s := &homoglyph.Snapshot{Use: homoglyph.SourceUC}
		for r := range rows {
			s.Runes = append(s.Runes, r)
		}
		slices.Sort(s.Runes)
		for _, r := range s.Runes {
			row := slices.Sorted(slices.Values(rows[r]))
			s.Counts = append(s.Counts, int32(len(row)))
			s.UCSkel = append(s.UCSkel, 0)
			s.SimASCII = append(s.SimASCII, 0)
			s.SimLow = append(s.SimLow, 0)
			for _, p := range row {
				s.Partners = append(s.Partners, p)
				s.Masks = append(s.Masks, homoglyph.SourceUC)
			}
		}
		db, err := homoglyph.FromSnapshot(s, uc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if db.Chars().Contains(link) || !db.Chars().Contains(0x110000) {
			t.Fatalf("%U: want a partner outside the component runes and U+110000 inside", link)
		}
		refs := []string{"ae", "ea", "ае", "bee"}
		assertSameCompile(t, fmt.Sprintf("outside %U", link), db, refs)
		d := NewDetector(db, refs)
		if keys := tableKeys(t, "outside", &d.skel.refs); len(keys) != 2 || len(keys["aa"]) != 3 {
			t.Fatalf("%U: want ae, ea and ае under key aa, got %v", link, keys)
		}
		rep, _ := rowMaps(db.FoldRows())
		if _, ok := rep[link]; ok {
			t.Errorf("%U got a representative", link)
		}
		if rep[0x110000] != 'a' {
			t.Errorf("U+110000 represented by %U, want a", rep[0x110000])
		}
	}
}

// TestCompileNestedExpansion: a rune of one multi-rune prototype can
// itself expand, when its class's representative has a multi-rune
// prototype. Here m → "rn", r's class is {A, r} through SimChar, and
// A → "vv", so m skeletonizes to "vvn": the expansion of r must not
// disturb the rest of m's prototype.
func TestCompileNestedExpansion(t *testing.T) {
	uc := confusables.New()
	uc.Add('m', []rune("rn"), "LATIN SMALL LETTER M")
	uc.Add('A', []rune("vv"), "TEST ENTRY")
	sim := simchar.FromPairs([]simchar.Pair{{A: 'A', B: 'r'}})
	db := homoglyph.New(uc, sim, 0)
	refs := []string{"mom", "vvnovvn", "ram"}
	assertSameCompile(t, "nested", db, refs)
	if got, _ := seqOf(NewDetector(db, refs).db.FoldRows(), 'm'); string(got) != "vvn" {
		t.Fatalf("skeleton of m = %q, want vvn", got)
	}
}

// BenchmarkNewDetector compiles a detector over the 10k zonegen
// references and the fast-font union database: the set-up cost of every
// fresh detector (a CLI run with -refs, a reload with a list, a
// Rebuild).
func BenchmarkNewDetector(b *testing.B) {
	db := testDB(b)
	refs := zonegenRefs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if NewDetector(db, refs).NumReferences() == 0 {
			b.Fatal("empty detector")
		}
	}
}
