package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/confusables"
	"repro/internal/core"
	"repro/internal/fontgen"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/simchar"
	"repro/internal/stats"
	"repro/internal/ucd"
)

var (
	fixtureOnce sync.Once
	fixtureDB   *homoglyph.DB
)

// builtDB is the freshly compiled database every snapshot is compared
// against: mid-size synthetic font, default UC, full Δ scan.
func builtDB(t testing.TB) *homoglyph.DB {
	t.Helper()
	fixtureOnce.Do(func() {
		font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
		sim, _ := simchar.Build(font, ucd.IDNASet(), simchar.Options{})
		fixtureDB = homoglyph.New(confusables.Default(), sim, 0)
	})
	return fixtureDB
}

var testRefs = []string{
	"google", "facebook", "amazon", "apple", "paypal",
	"myetherwallet", "binance", "allstate", "netflix", "spotify",
}

// fuzzCorpus builds a deterministic mixed corpus: real homographs
// (reference labels with 1–2 database substitutions), clean ASCII
// labels, junk ACE labels, and raw garbage — the input families a zone
// sweep actually sees.
func fuzzCorpus(t testing.TB, db *homoglyph.DB, n int) []string {
	t.Helper()
	rng := stats.NewRNG(0x50a9)
	var corpus []string
	for len(corpus) < n {
		switch rng.Intn(4) {
		case 0: // homograph of a reference
			ref := testRefs[rng.Intn(len(testRefs))]
			runes := []rune(ref)
			for subs := 1 + rng.Intn(2); subs > 0; subs-- {
				pos := rng.Intn(len(runes))
				if glyphs := db.Homoglyphs(runes[pos]); len(glyphs) > 0 {
					runes[pos] = glyphs[rng.Intn(len(glyphs))]
				}
			}
			if a, err := punycode.ToASCIILabel(string(runes)); err == nil {
				corpus = append(corpus, a)
			}
		case 1: // clean ASCII label
			b := make([]byte, 1+rng.Intn(12))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			corpus = append(corpus, string(b))
		case 2: // syntactically plausible but junk ACE label
			b := make([]byte, 1+rng.Intn(10))
			for i := range b {
				b[i] = byte('a' + rng.Intn(26))
			}
			corpus = append(corpus, "xn--"+string(b))
		default: // raw garbage, possibly invalid
			b := make([]byte, rng.Intn(8))
			for i := range b {
				b[i] = byte(32 + rng.Intn(224))
			}
			corpus = append(corpus, string(b))
		}
	}
	return corpus
}

// TestRoundTripDetectionParity is the tentpole guarantee: build → save →
// load must produce byte-for-byte identical detection results versus
// the freshly built detector, across a fuzzed corpus, for both the
// embedded-detector path and a detector rebuilt over the loaded DB. The
// corpus runs under the posting backend and under BackendBoth, whose
// gate also passes the pure-ASCII labels on to the index probe.
func TestRoundTripDetectionParity(t *testing.T) {
	db := builtDB(t)
	det := core.NewDetector(db, testRefs)

	loadedDB, loadedDet, err := Unmarshal(Marshal(db, det))
	if err != nil {
		t.Fatal(err)
	}
	if loadedDet == nil {
		t.Fatal("detector section was not round-tripped")
	}
	rebuilt := core.NewDetector(loadedDB, testRefs)

	corpus := fuzzCorpus(t, db, 4000)
	matches := 0
	for _, label := range corpus {
		for _, be := range []core.Backend{core.BackendPostings, core.BackendBoth} {
			want := det.DetectDomainBackend(label, be)
			if be == core.BackendPostings {
				matches += len(want)
			}
			if got := loadedDet.DetectDomainBackend(label, be); !reflect.DeepEqual(got, want) {
				t.Fatalf("embedded detector diverges on %q (%v):\n got %v\nwant %v", label, be, got, want)
			}
			if got := rebuilt.DetectDomainBackend(label, be); !reflect.DeepEqual(got, want) {
				t.Fatalf("rebuilt detector diverges on %q (%v):\n got %v\nwant %v", label, be, got, want)
			}
		}
	}
	if matches == 0 {
		t.Fatal("corpus produced no matches; parity test is vacuous")
	}
}

// TestRoundTripDBQueries checks the non-detection query surface of the
// loaded database: Confusable, Homoglyphs, Canonical, Chars, and the
// source-restricted views all answer as the built one does.
func TestRoundTripDBQueries(t *testing.T) {
	db := builtDB(t)
	loaded, _, err := Unmarshal(Marshal(db, nil))
	if err != nil {
		t.Fatal(err)
	}
	chars := db.Chars().Runes()
	if got := loaded.Chars().Runes(); !reflect.DeepEqual(got, chars) {
		t.Fatalf("Chars diverges: %d vs %d runes", len(got), len(chars))
	}
	rng := stats.NewRNG(99)
	probe := append([]rune{'o', 'a', 'l', 0x043E, 0x0585, 0xFFFF}, chars[:min(len(chars), 2000)]...)
	for _, r := range probe {
		if got, want := loaded.Homoglyphs(r), db.Homoglyphs(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("Homoglyphs(U+%04X) = %v, want %v", r, got, want)
		}
		if got, want := loaded.Canonical(r), db.Canonical(r); got != want {
			t.Fatalf("Canonical(U+%04X) = U+%04X, want U+%04X", r, got, want)
		}
		other := chars[rng.Intn(len(chars))]
		gotOK, gotSrc := loaded.Confusable(r, other)
		wantOK, wantSrc := db.Confusable(r, other)
		if gotOK != wantOK || gotSrc != wantSrc {
			t.Fatalf("Confusable(U+%04X, U+%04X) = %v/%v, want %v/%v", r, other, gotOK, gotSrc, wantOK, wantSrc)
		}
	}
	for _, use := range []homoglyph.Source{homoglyph.SourceUC, homoglyph.SourceSimChar} {
		lv, dv := loaded.WithSources(use), db.WithSources(use)
		for _, r := range probe[:100] {
			if got, want := lv.Homoglyphs(r), dv.Homoglyphs(r); !reflect.DeepEqual(got, want) {
				t.Fatalf("WithSources(%v).Homoglyphs(U+%04X) diverges", use, r)
			}
		}
	}
}

// TestMarshalDeterministic: equal inputs must serialize identically, so
// snapshot artifacts diff cleanly across builds.
func TestMarshalDeterministic(t *testing.T) {
	db := builtDB(t)
	det := core.NewDetector(db, testRefs)
	a := Marshal(db, det)
	b := Marshal(db, det)
	if !bytes.Equal(a, b) {
		t.Fatal("two Marshals of the same database differ")
	}
	// And a re-marshal of the loaded artifacts is byte-identical too:
	// the canonical layout survives a round trip.
	db2, det2, err := Unmarshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if c := Marshal(db2, det2); !bytes.Equal(a, c) {
		t.Fatal("marshal(unmarshal(x)) != x")
	}
}

func TestRejectsBadMagic(t *testing.T) {
	db := builtDB(t)
	data := Marshal(db, nil)
	data[0] ^= 0xFF
	if _, _, err := Unmarshal(data); !errors.Is(err, ErrMagic) {
		t.Fatalf("err = %v, want ErrMagic", err)
	}
}

// reseal recomputes the trailing checksum after a deliberate mutation,
// so version/structure checks are exercised rather than the crc.
// snapHeaderSize is the envelope header (magic + version) plus the
// snapshot's flags word: the offset of the first section.
const snapHeaderSize = envelopeMagicLen + 4 + 4

func reseal(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
}

func TestRejectsWrongVersion(t *testing.T) {
	db := builtDB(t)
	data := Marshal(db, nil)
	binary.LittleEndian.PutUint32(data[len(Magic):], Version+1)
	reseal(data)
	if _, _, err := Unmarshal(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestRejectsPreviousVersion: a v4 file ends its database section at
// the masks and carries the fold rows in its detector section, after
// the reference list, and a v3 file adds the skeleton key lists after
// them. Each must fail loudly rather than be misread as v5: read under
// a v5 header, neither loads. Every older version fails the same way.
func TestRejectsPreviousVersion(t *testing.T) {
	db := tinyDB()
	det := core.NewDetector(db, []string{"google", "g\u043e\u043egle", "paypal"}) // Cyrillic о
	rows := &enc{}
	writeRows(rows, db.FoldRows())
	e := &enc{}
	e.u32(flagUC | flagDetector)
	writeUC(e, db.UC())
	writeIndex(e, db.Snapshot())
	e.buf = e.buf[:len(e.buf)-len(rows.buf)] // v4's database section
	writeDetector(e, det.Snapshot())
	e.raw(rows.buf)
	v4 := slices.Clone(e.buf)
	// v3's key lists: the skeletons ascending, their id list lengths,
	// and the ids.
	e.strings([]string{"google", "paypal"})
	e.i32s([]int32{2, 1})
	e.i32s([]int32{0, 1, 2})
	for v, payload := range map[uint32][]byte{3: e.buf, 4: v4} {
		if _, _, err := Unmarshal(SealEnvelope(Magic, v, payload)); !errors.Is(err, ErrVersion) {
			t.Fatalf("v%d file: err = %v, want ErrVersion", v, err)
		}
		if _, _, err := Unmarshal(SealEnvelope(Magic, Version, payload)); err == nil {
			t.Fatalf("v%d payload loaded under a v%d header", v, Version)
		}
	}
	data := Marshal(db, det)
	for v := uint32(0); v < Version; v++ {
		binary.LittleEndian.PutUint32(data[len(Magic):], v)
		reseal(data)
		if _, _, err := Unmarshal(data); !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

func TestRejectsCorruption(t *testing.T) {
	db := builtDB(t)
	det := core.NewDetector(db, testRefs)
	clean := Marshal(db, det)
	rng := stats.NewRNG(0xbad)
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), clean...)
		pos := len(Magic) + 4 + rng.Intn(len(data)-len(Magic)-4)
		data[pos] ^= byte(1 + rng.Intn(255))
		if _, _, err := Unmarshal(data); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

// TestRejectsTruncation: every prefix must fail cleanly — no panic, no
// silent partial load.
func TestRejectsTruncation(t *testing.T) {
	db := builtDB(t)
	det := core.NewDetector(db, testRefs)
	clean := Marshal(db, det)
	rng := stats.NewRNG(0x7bc)
	cuts := []int{0, 1, len(Magic), snapHeaderSize, snapHeaderSize + 1, len(clean) - 5, len(clean) - 1}
	for i := 0; i < 60; i++ {
		cuts = append(cuts, rng.Intn(len(clean)))
	}
	for _, cut := range cuts {
		if _, _, err := Unmarshal(clean[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes was accepted", cut)
		}
	}
}

// TestRejectsResealedStructuralDamage attacks the section decoders
// directly: with the checksum recomputed the payload validators are the
// only defense, and they must reject (not panic) on arbitrary damage.
func TestRejectsResealedStructuralDamage(t *testing.T) {
	db := builtDB(t)
	det := core.NewDetector(db, testRefs)
	clean := Marshal(db, det)
	rng := stats.NewRNG(0x5ea1)
	rejected := 0
	for trial := 0; trial < 400; trial++ {
		data := append([]byte(nil), clean...)
		pos := snapHeaderSize + rng.Intn(len(data)-snapHeaderSize-4)
		data[pos] ^= byte(1 + rng.Intn(255))
		reseal(data)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at %d: decoder panicked: %v", pos, r)
				}
			}()
			if _, _, err := Unmarshal(data); err != nil {
				rejected++
			}
		}()
	}
	// Some single-byte flips legitimately decode (e.g. a delta value or
	// mask bit changes), but structural damage must usually be caught.
	if rejected == 0 {
		t.Fatal("no resealed mutation was ever rejected; validators look dead")
	}
}

// tinyDB is a UC-only database of two classes, {a, а} and {o, о, ο},
// small enough to seed the fuzz corpus.
func tinyDB() *homoglyph.DB {
	uc := confusables.New()
	uc.Add(0x0430, []rune{'a'}, "CYRILLIC SMALL LETTER A")
	uc.Add(0x043E, []rune{'o'}, "CYRILLIC SMALL LETTER O")
	uc.Add(0x03BF, []rune{'o'}, "GREEK SMALL LETTER OMICRON")
	return homoglyph.New(uc, nil, homoglyph.SourceUC)
}

// marshalEdited is Marshal for a UC-only database and a detector, with
// the flattened index and detector passed through edit functions before
// they are written (a nil function edits nothing): a crafted table,
// sealed under a valid checksum.
func marshalEdited(db *homoglyph.DB, det *core.Detector, editIndex func(*homoglyph.Snapshot), editDet func(*core.Snapshot)) []byte {
	e := &enc{}
	e.u32(flagUC | flagDetector)
	writeUC(e, db.UC())
	idx, ds := db.Snapshot(), det.Snapshot()
	if editIndex != nil {
		editIndex(idx)
	}
	if editDet != nil {
		editDet(ds)
	}
	writeIndex(e, idx)
	writeDetector(e, ds)
	return SealEnvelope(Magic, Version, e.buf)
}

// craftedRefs are edits of a detector's reference list that the
// writer never produces: a repeated, an empty and an un-normalized
// reference. Each would index differently from what the file says.
var craftedRefs = map[string]func(*core.Snapshot){
	"duplicate reference":  func(s *core.Snapshot) { s.Refs[1] = s.Refs[0] },
	"empty reference":      func(s *core.Snapshot) { s.Refs[1] = "" },
	"upper-case reference": func(s *core.Snapshot) { s.Refs[0] = "GOOGLE" },
}

// TestRejectsCraftedTables: files with a valid checksum whose tables
// the writer never produces. A partner row out of order makes
// Confusable's binary search miss pairs; a repeated, empty or
// un-normalized reference makes the list differ from the one the load
// compiles. All must fail to load. The duplicated reference is the fuzz
// corpus seed duplicate-reference.
func TestRejectsCraftedTables(t *testing.T) {
	db := tinyDB()
	det := core.NewDetector(db, []string{"google", "paypal"})
	clean := marshalEdited(db, det, nil, nil)
	if !bytes.Equal(clean, Marshal(db, det)) {
		t.Fatal("marshalEdited without edits differs from Marshal")
	}
	if _, _, err := Unmarshal(clean); err != nil {
		t.Fatalf("unedited file rejected: %v", err)
	}
	swapPartners := func(s *homoglyph.Snapshot) {
		off := 0
		for i, r := range s.Runes {
			if r == 'o' {
				s.Partners[off], s.Partners[off+1] = s.Partners[off+1], s.Partners[off]
				return
			}
			off += int(s.Counts[i])
		}
		t.Fatal("no row for o")
	}
	crafted := map[string][]byte{"partners descending": marshalEdited(db, det, swapPartners, nil)}
	for name, edit := range craftedRefs {
		crafted[name] = marshalEdited(db, det, nil, edit)
	}
	for name, data := range crafted {
		if _, _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: crafted file loaded", name)
		}
	}
}

// TestRejectsBadFoldRows: the fold rows end the database section, so a
// file whose rows the writer never frames that way fails to load,
// database-only or with a detector, and whether or not the detector is
// wanted.
func TestRejectsBadFoldRows(t *testing.T) {
	db := tinyDB()
	det := core.NewDetector(db, []string{"google", "paypal"})
	if rows := db.FoldRows(); len(rows.RepRunes) < 2 {
		t.Fatalf("want two rep rows, got %d", len(rows.RepRunes))
	}
	dbOnly := func(edit func(*homoglyph.Snapshot)) []byte {
		e := &enc{}
		e.u32(flagUC)
		writeUC(e, db.UC())
		idx := db.Snapshot()
		edit(idx)
		writeIndex(e, idx)
		return SealEnvelope(Magic, Version, e.buf)
	}
	if !bytes.Equal(dbOnly(func(*homoglyph.Snapshot) {}), Marshal(db, nil)) {
		t.Fatal("the database-only writer differs from Marshal")
	}
	for name, edit := range map[string]func(*homoglyph.FoldRows){
		"truncated rep table":  func(x *homoglyph.FoldRows) { x.Reps = x.Reps[:len(x.Reps)-1] },
		"descending rep runes": func(x *homoglyph.FoldRows) { x.RepRunes[0], x.RepRunes[1] = x.RepRunes[1], x.RepRunes[0] },
		"single-rune sequence": func(x *homoglyph.FoldRows) {
			x.SeqRunes, x.SeqLens, x.Seqs = []rune{0x2161}, []int32{1}, []rune{'I'}
		},
		"trailing seq rune": func(x *homoglyph.FoldRows) { x.Seqs = []rune{'x'} },
	} {
		editIndex := func(s *homoglyph.Snapshot) { edit(s.Rows) }
		for how, data := range map[string][]byte{
			"database only": dbOnly(editIndex),
			"with detector": marshalEdited(db, det, editIndex, nil),
		} {
			for _, withDetector := range []bool{true, false} {
				if _, _, err := unmarshal(data, withDetector); err == nil {
					t.Errorf("%s, %s (detector wanted: %v): loaded", name, how, withDetector)
				}
			}
		}
	}
}

// addRowsOutsideRuneSpace gives a UC-only index rows for -2 and
// utf8.MaxRune+1, each confusable with 'o'. The writer never produces
// such rows, but the format can carry them.
func addRowsOutsideRuneSpace(s *homoglyph.Snapshot) {
	s.Runes = slices.Concat([]rune{-2}, s.Runes, []rune{utf8.MaxRune + 1})
	s.Counts = slices.Concat([]int32{1}, s.Counts, []int32{1})
	s.UCSkel = slices.Concat([]rune{'o'}, s.UCSkel, []rune{'o'})
	s.SimASCII = slices.Concat([]rune{0}, s.SimASCII, []rune{0})
	s.SimLow = slices.Concat([]rune{0}, s.SimLow, []rune{0})
	s.Partners = slices.Concat([]rune{'o'}, s.Partners, []rune{'o'})
	s.Masks = slices.Concat([]homoglyph.Source{homoglyph.SourceUC}, s.Masks, []homoglyph.Source{homoglyph.SourceUC})
}

// TestLoadsRowsOutsideRuneSpace: a file whose index holds rows for
// values outside the rune space loads, and those rows answer. It is
// the fuzz corpus seed rows-outside-rune-space.
func TestLoadsRowsOutsideRuneSpace(t *testing.T) {
	db := tinyDB()
	data := marshalEdited(db, core.NewDetector(db, []string{"google", "paypal"}), addRowsOutsideRuneSpace, nil)
	loaded, det, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []rune{-2, utf8.MaxRune + 1} {
		if ok, src := loaded.Confusable(r, 'o'); !ok || src != homoglyph.SourceUC {
			t.Errorf("Confusable(%U, o) = %v, %v", r, ok, src)
		}
	}
	if ms := det.DetectDomainBackend(mustACE(t, "gооgle"), core.BackendPostings); len(ms) != 1 {
		t.Errorf("gооgle: %v", ms)
	}
}

// TestUnmarshalWithoutDetector: a load that does not want the embedded
// detector skips its rebuild, so a detector that would fail it loads,
// but every other check still runs: the database's tables, the
// detector section's framing and the trailing bytes.
func TestUnmarshalWithoutDetector(t *testing.T) {
	db := tinyDB()
	det := core.NewDetector(db, []string{"google", "paypal"})
	duplicated := marshalEdited(db, det, nil, craftedRefs["duplicate reference"])
	if _, _, err := Unmarshal(duplicated); err == nil {
		t.Fatal("duplicate reference: loaded with the detector")
	}
	if loaded, d, err := unmarshal(duplicated, false); err != nil || d != nil || loaded == nil {
		t.Fatalf("duplicate reference, no detector wanted: db %v, detector %v, err %v", loaded, d, err)
	}
	unsorted := marshalEdited(db, det, func(s *homoglyph.Snapshot) { s.Runes[0], s.Runes[1] = s.Runes[1], s.Runes[0] }, nil)
	payload, err := OpenEnvelope(Marshal(db, det), Magic, Version)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"index rows out of order": unsorted,
		"trailing byte":           SealEnvelope(Magic, Version, append(slices.Clone(payload), 0)),
		"detector cut short":      SealEnvelope(Magic, Version, payload[:len(payload)-4]),
	} {
		if _, _, err := unmarshal(data, false); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

func TestFileRoundTripWithoutDetector(t *testing.T) {
	db := builtDB(t)
	path := t.TempDir() + "/test.snap"
	if err := WriteFile(path, db, nil); err != nil {
		t.Fatal(err)
	}
	loaded, det, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if det != nil {
		t.Fatal("unexpected embedded detector")
	}
	if got, want := loaded.Homoglyphs('o'), db.Homoglyphs('o'); !reflect.DeepEqual(got, want) {
		t.Fatalf("Homoglyphs(o) = %v, want %v", got, want)
	}
}

func TestFileRoundTrip(t *testing.T) {
	db := builtDB(t)
	det := core.NewDetector(db, testRefs)
	path := t.TempDir() + "/test.snap"
	if err := WriteFile(path, db, det); err != nil {
		t.Fatal(err)
	}
	_, loadedDet, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loadedDet == nil {
		t.Fatal("no detector in file")
	}
	idn := mustACE(t, "gооgle") // two Cyrillic о
	m := loadedDet.DetectDomainBackend(idn, core.BackendPostings)
	if len(m) != 1 || m[0].Reference != "google" {
		t.Fatalf("DetectDomainBackend(%s) = %v", idn, m)
	}
}

func mustACE(t testing.TB, label string) string {
	t.Helper()
	a, err := punycode.ToASCIILabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestNilComponents: a DB built without UC or SimChar must survive the
// round trip with its nil components preserved.
func TestNilComponents(t *testing.T) {
	font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	sim, _ := simchar.Build(font, ucd.IDNASet(), simchar.Options{})
	for _, tc := range []struct {
		name string
		db   *homoglyph.DB
	}{
		{"sim-only", homoglyph.New(nil, sim, 0)},
		{"uc-only", homoglyph.New(confusables.Default(), nil, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loaded, _, err := Unmarshal(Marshal(tc.db, nil))
			if err != nil {
				t.Fatal(err)
			}
			if (loaded.UC() == nil) != (tc.db.UC() == nil) || (loaded.SimChar() == nil) != (tc.db.SimChar() == nil) {
				t.Fatal("component presence not preserved")
			}
			for _, r := range []rune{'o', 'a', 0x043E} {
				if got, want := loaded.Homoglyphs(r), tc.db.Homoglyphs(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("Homoglyphs(U+%04X) = %v, want %v", r, got, want)
				}
			}
		})
	}
}

// failingReaderAt fails every read, as a journal on a dying disk would.
type failingReaderAt struct{ err error }

func (r failingReaderAt) ReadAt([]byte, int64) (int, error) { return 0, r.err }

func TestCompleteLineEnd(t *testing.T) {
	const chunk = 64 << 10
	// A 64 KiB chunk boundary sits at limit-chunk; put a newline on each
	// side of it in otherwise newline-free journals.
	lastOfEarlierChunk := bytes.Repeat([]byte{'x'}, 2*chunk)
	lastOfEarlierChunk[chunk-1] = '\n'
	firstOfLastChunk := bytes.Repeat([]byte{'x'}, 2*chunk)
	firstOfLastChunk[chunk] = '\n'
	for _, tc := range []struct {
		name         string
		data         []byte
		floor, limit int64
		want         int64
	}{
		{"complete", []byte("a\nb\n"), 0, 4, 4},
		{"torn tail", []byte("a\nb\nc"), 0, 5, 4},
		{"no newline", []byte("abc"), 0, 3, 0},
		{"no newline above floor", []byte("a\nbcd"), 2, 5, 2},
		{"newline below floor ignored", []byte("ab\ncd"), 4, 5, 4},
		{"floor > 0", []byte("a\nb\nc\nd"), 2, 7, 6},
		{"limit == floor", []byte("a\nb\n"), 2, 2, 2},
		{"limit inside the data", []byte("a\nb\nc\n"), 0, 5, 4},
		{"newline ends the earlier chunk", lastOfEarlierChunk, 0, 2 * chunk, chunk},
		{"newline starts the last chunk", firstOfLastChunk, 0, 2 * chunk, chunk + 1},
		{"chunk boundary at the floor", lastOfEarlierChunk, chunk, 2 * chunk, chunk},
	} {
		got, err := CompleteLineEnd(bytes.NewReader(tc.data), tc.floor, tc.limit)
		if err != nil || got != tc.want {
			t.Errorf("%s: CompleteLineEnd = (%d, %v), want %d", tc.name, got, err, tc.want)
		}
	}

	// A failed read is an error, never floor: trimming to floor would
	// destroy every complete line the read could not see.
	boom := errors.New("disk on fire")
	if got, err := CompleteLineEnd(failingReaderAt{boom}, 3, 10); !errors.Is(err, boom) {
		t.Errorf("failing reader: CompleteLineEnd = (%d, %v), want %v", got, err, boom)
	}
	// limit == floor reads nothing, so it cannot fail.
	if got, err := CompleteLineEnd(failingReaderAt{boom}, 5, 5); err != nil || got != 5 {
		t.Errorf("empty range: CompleteLineEnd = (%d, %v), want 5", got, err)
	}
}

// FuzzUnmarshal: arbitrary input — taken raw, and sealed as a SHAMSNAP
// payload so the section decoders see it past the checksum — never
// panics, and every rejection is an error rather than a nil database.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, SealEnvelope(Magic, Version, data)} {
			if db, _, err := Unmarshal(in); err == nil && db == nil {
				t.Fatalf("Unmarshal(%q) returned neither a database nor an error", in)
			}
		}
	})
}
