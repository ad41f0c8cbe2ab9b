package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/confusables"
	"repro/internal/homoglyph"
	"repro/internal/lint"
	"repro/internal/punycode"
)

// rowFold is the per-rune fold as the rep/seq rows define it — what
// appendLabel computed before the fold table — kept as the table's
// parity oracle.
func rowFold(x *homoglyph.FoldRows, dst []byte, r rune) []byte {
	if s, ok := seqOf(x, r); ok {
		for _, sr := range s {
			dst = utf8.AppendRune(dst, sr)
		}
		return dst
	}
	if i, ok := slices.BinarySearch(x.RepRunes, r); ok {
		r = x.Reps[i]
	}
	return utf8.AppendRune(dst, r)
}

// seqOf returns r's sequence row, if it has one.
func seqOf(x *homoglyph.FoldRows, r rune) ([]rune, bool) {
	i, ok := slices.BinarySearch(x.SeqRunes, r)
	if !ok {
		return nil, false
	}
	off := 0
	for _, l := range x.SeqLens[:i] {
		off += int(l)
	}
	return x.Seqs[off : off+int(x.SeqLens[i])], true
}

// loadedView is view as a snapshot loads it: the index and the fold
// rows taken from view's flattened form, so a detector compiled over it
// reads loaded rows rather than computing them.
func loadedView(t testing.TB, view *homoglyph.DB) *homoglyph.DB {
	t.Helper()
	db, err := homoglyph.FromSnapshot(view.Snapshot(), view.UC(), view.SimChar())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFoldTableParity checks the compiled fold table against the
// rep/seq rows it is derived from, rune by rune and over whole labels:
// every database rune, all of ASCII, and runes the table does not cover
// (random code points, the rune space's edges, runes no label can hold).
// It runs on the UC, SimChar and union views, on fresh and
// snapshot-loaded detectors.
func TestFoldTableParity(t *testing.T) {
	db := testDB(t)
	probe := append([]rune(nil), db.Chars().Runes()...)
	for r := rune(0); r < 0x80; r++ {
		probe = append(probe, r)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 4000; i++ {
		probe = append(probe, rune(rng.Intn(utf8.MaxRune+1)))
	}
	probe = append(probe, 0xFFFF, 0x10000, 0x1D800, 0xE0100, utf8.MaxRune, utf8.RuneError,
		0xD800, -1, utf8.MaxRune+1)

	refs := []string{"google", "microsoft", "wikipedia", "close"}
	views := []homoglyph.Source{homoglyph.SourceUC, homoglyph.SourceSimChar, homoglyph.SourceUC | homoglyph.SourceSimChar}
	for _, use := range views {
		view := db.WithSources(use)
		fresh := NewDetector(view, refs)
		loaded, err := NewDetectorFromSnapshot(loadedView(t, view), fresh.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*Detector{"fresh": fresh, "loaded": loaded} {
			x := d.skel
			mapped := 0
			for _, r := range probe {
				got := x.appendLabel(nil, []rune{r})
				want := rowFold(d.db.FoldRows(), nil, r)
				if !bytes.Equal(got, want) {
					t.Fatalf("%v %s: fold(%U) = %q, maps say %q", use, name, r, got, want)
				}
				if x.fold.entry(r)&^deadBit != 0 {
					mapped++
				}
			}
			if mapped == 0 || len(x.fold.dir) == 0 {
				t.Fatalf("%v %s: fold table maps no probed rune", use, name)
			}
			// Whole labels: the table fold of a label is the
			// concatenation of its runes' map folds.
			for trial := 0; trial < 500; trial++ {
				label := make([]rune, 1+rng.Intn(12))
				for i := range label {
					label[i] = probe[rng.Intn(len(probe))]
				}
				var want []byte
				for _, r := range label {
					want = rowFold(d.db.FoldRows(), want, r)
				}
				if got := x.appendLabel([]byte("prefix"), label); !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
					t.Fatalf("%v %s: fold(%q) = %q, maps say %q", use, name, string(label), got, want)
				}
			}
		}
	}
}

// TestLiveRuneTable checks the dead-rune gate against a brute-force
// verdict: r is live exactly when every rune of skeleton(Fold(r)), as
// the rep/seq maps define it, appears in some reference key. Probes are
// every database rune, all of ASCII, random code points and runes that
// case-fold elsewhere. The references mix ASCII, a Latin letter beyond
// ASCII and CJK runes no database maps, so live runes that map to
// themselves occur inside and outside the fold table's pages, and they
// leave some multi-rune skeletons live only in part. It runs
// on the UC, SimChar and union views, on fresh and snapshot-loaded
// detectors.
func TestLiveRuneTable(t *testing.T) {
	db := testDB(t)
	probe := append([]rune(nil), db.Chars().Runes()...)
	for r := rune(0); r < 0x80; r++ {
		probe = append(probe, r)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 4000; i++ {
		probe = append(probe, rune(rng.Intn(utf8.MaxRune+1)))
	}
	// KELVIN SIGN, OHM SIGN, ANGSTROM SIGN, İ, capital sharp s, Cyrillic
	// О, fullwidth Ｇ, Deseret 𐐀: each folds to another rune.
	folding := []rune{0x212A, 0x2126, 0x212B, 0x0130, 0x1E9E, 0x041E, 0xFF27, 0x10400, 'G', 'Ü'}
	probe = append(probe, folding...)
	for _, r := range folding {
		if punycode.Fold(r) == r {
			t.Fatalf("%U does not case-fold", r)
		}
	}

	// No reference holds an n or an m, but "bücher" holds the r of
	// skeleton(m) = "rn".
	refs := []string{"google", "yahoo", "wikipedia", "close", "bücher", "中文", "例え"}
	views := []homoglyph.Source{homoglyph.SourceUC, homoglyph.SourceSimChar, homoglyph.SourceUC | homoglyph.SourceSimChar}
	for _, use := range views {
		view := db.WithSources(use)
		fresh := NewDetector(view, refs)
		loaded, err := NewDetectorFromSnapshot(loadedView(t, view), fresh.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string]*Detector{"fresh": fresh, "loaded": loaded} {
			x := d.skel
			keyRunes := map[rune]bool{}
			for _, r := range string(x.refs.keys) {
				keyRunes[r] = true
			}
			// partial counts dead runes whose skeleton starts with a key
			// rune, so the gate must look past the first rune. The UC
			// view has one: skeleton(m) = "rn".
			live, dead, partial := 0, 0, 0
			for _, r := range probe {
				want := true
				for i, sr := range []rune(string(rowFold(d.db.FoldRows(), nil, punycode.Fold(r)))) {
					if !keyRunes[sr] {
						if want && i > 0 {
							partial++
						}
						want = false
					}
				}
				if got := x.live(punycode.Fold(r)); got != want {
					t.Fatalf("%v %s: live(Fold(%U)) = %v, brute force says %v", use, name, r, got, want)
				}
				if x.keep(punycode.Fold(r)) != want {
					t.Fatalf("%v %s: keep(Fold(%U)) disagrees with live", use, name, r)
				}
				if want {
					live++
				} else {
					dead++
				}
			}
			for _, r := range []rune{'g', 0x212A, '中', '例', 'え'} {
				if !x.live(punycode.Fold(r)) {
					t.Fatalf("%v %s: reference rune %U is dead", use, name, r)
				}
			}
			if live == 0 || dead == 0 || (use == homoglyph.SourceUC && partial == 0) {
				t.Fatalf("%v %s: %d live, %d dead and %d partly live probes; want all three", use, name, live, dead, partial)
			}
		}
	}
}

// TestSortMatchesParity checks the radix sort against a stable sort of
// the matches themselves with compareMatch: the same matches in the same
// order, ties included. The fields are built to exercise every radix
// level: FQDNs sharing 8-, 16- and 24-byte prefixes, lengths either side
// of the 8- and 16-byte digit boundaries, the zero byte the digits pad
// with at offsets 8 and 15, equal FQDNs whose IDNs differ only past
// byte 8, and equal FQDNs and IDNs that differ only in the reference.
// Sizes run past the insertion-sort cutoffs, so the LSD passes and the
// deeper levels run too.
func TestSortMatchesParity(t *testing.T) {
	const p24 = "xn--abcdefghijklmnopqrst"
	fqdns := []string{"a.com", "b.com", "xn--a.net", "a.com.", "", "a", "a\x00", "a\x00\x00b",
		p24[:7], p24[:8], p24[:9], p24[:16], p24[:17], p24[:8] + "\x00", p24[:15] + "\x00", p24[:15] + "\x00x",
		p24[:8] + "x.com", p24[:8] + "y.com", p24[:16] + "x.com", p24[:16] + "y.com",
		p24 + ".com", p24 + ".net", p24 + "\x00", p24,
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
	for _, n := range []int{7, 8, 9, 16, 17, 24} {
		if !slices.ContainsFunc(fqdns, func(f string) bool { return len(f) == n }) {
			t.Fatalf("no fixture FQDN of length %d", n)
		}
	}
	idns := []string{"xn--abcdefgh1", "xn--abcdefgh2", "xn--abcdefgh", "xn--abcdefgh\x00", "xn--a", "a", ""}
	refs := []string{"google", "googlf", "amazon", "g", ""}
	pick := func(rng *rand.Rand, xs []string) string {
		// Skewed toward the front, so some keys repeat far more often
		// than others.
		return xs[min(rng.Intn(len(xs)), rng.Intn(len(xs)))]
	}
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{0, 1, 2, 2, 2, 3, 5, 16, 17, 48, 49, 64, 300, 1000, 5000} {
		trials := 20
		if n >= 1000 {
			trials = 4
		}
		for trial := 0; trial < trials; trial++ {
			in := make([]Match, n)
			for i := range in {
				// Unicode tags each match with its input position.
				in[i] = Match{FQDN: pick(rng, fqdns), IDN: pick(rng, idns), Reference: pick(rng, refs), Unicode: strconv.Itoa(i)}
			}
			switch trial {
			case 1:
				slices.SortStableFunc(in, func(a, b Match) int { return compareMatch(&a, &b) })
			case 2:
				slices.SortStableFunc(in, func(a, b Match) int { return compareMatch(&b, &a) })
			}
			got := slices.Clone(in)
			SortMatches(got)
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b Match) int { return compareMatch(&a, &b) })
			for i := range got {
				if compareMatch(&got[i], &want[i]) != 0 || got[i].Unicode != want[i].Unicode {
					t.Fatalf("n=%d trial %d: position %d holds %q/%q/%q (input %s), want %q/%q/%q (input %s)", n, trial, i,
						got[i].FQDN, got[i].IDN, got[i].Reference, got[i].Unicode,
						want[i].FQDN, want[i].IDN, want[i].Reference, want[i].Unicode)
				}
			}
		}
	}
}

// BenchmarkSortMatches sorts an idn-sweep-shaped batch: about 37k
// matches, most of them from 3,300 ACE names that each recur ten times
// (duplicate FQDNs sharing the "xn--" prefix), the rest from plain
// ASCII names. CI gates its allocations: the radix sort allocates one
// key buffer per call.
func BenchmarkSortMatches(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	const alnum = "abcdefghijklmnopqrstuvwxyz0123456789"
	word := func(n int) string {
		w := make([]byte, n)
		for i := range w {
			w[i] = alnum[rng.Intn(len(alnum))]
		}
		return string(w)
	}
	tlds := []string{"com", "net", "org", "jp", "co.uk"}
	refs := make([]string, 200)
	for i := range refs {
		refs[i] = word(4 + rng.Intn(8))
	}
	var names []Match
	for i := 0; i < 3300; i++ {
		idn := "xn--" + word(4+rng.Intn(10)) + "-" + word(4)
		fqdn := idn + "." + tlds[rng.Intn(len(tlds))]
		for k := 1 + rng.Intn(2); k > 0; k-- {
			names = append(names, Match{FQDN: fqdn, IDN: idn, Reference: refs[rng.Intn(len(refs))]})
		}
	}
	var in []Match
	for c := 0; c < 10; c++ {
		in = append(in, names...)
	}
	for len(in) < 37672 {
		label := word(5 + rng.Intn(10))
		in = append(in, Match{FQDN: label + "." + tlds[rng.Intn(len(tlds))], IDN: label, Reference: refs[rng.Intn(len(refs))]})
	}
	in = in[:37672]
	work := make([]Match, len(in))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, in)
		SortMatches(work)
	}
}

// TestOverlongACELabelSkipped pins the decode cap: an ACE label longer
// than the 63-octet DNS limit is not decoded, so it matches nothing on
// any entry point, while a 63-octet one still decodes and matches. Raw
// UTF-8 labels are not capped.
func TestOverlongACELabelSkipped(t *testing.T) {
	// "gо" + x…x with a Cyrillic о, spelled in ACE form; find the
	// padding that makes the ACE label exactly 63 octets.
	homograph := func(pad int) (label, ref string) {
		tail := strings.Repeat("x", pad)
		enc, err := punycode.Encode("gо" + tail)
		if err != nil {
			t.Fatal(err)
		}
		return punycode.ACEPrefix + enc, "go" + tail
	}
	pad := 0
	for ; pad < 64; pad++ {
		if l, _ := homograph(pad); len(l) == punycode.MaxLabelLength {
			break
		}
	}
	fits, fitsRef := homograph(pad)
	long, longRef := homograph(pad + 1)
	if len(fits) != 63 || len(long) != 64 {
		t.Fatalf("fixture lengths %d and %d, want 63 and 64", len(fits), len(long))
	}
	rawLong := "gо" + strings.Repeat("x", 70)
	rawRef := "go" + strings.Repeat("x", 70)
	d := NewDetector(testDB(t), []string{fitsRef, longRef, rawRef})

	// Without the cap the long label is a homograph: the linear scan,
	// which decodes anything, finds it.
	if ms := d.DetectLabelLinear(long); len(ms) != 1 || ms[0].Reference != longRef {
		t.Fatalf("linear scan of the 64-octet label: %v", ms)
	}
	for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
		if ms := d.DetectDomainBackend(fits, be); len(ms) != 1 || ms[0].Reference != fitsRef {
			t.Errorf("%v: 63-octet ACE label: %v, want one match of %q", be, ms, fitsRef)
		}
		if ms := d.DetectDomainBackend(fits+".com", be); len(ms) != 1 || ms[0].Reference != fitsRef {
			t.Errorf("%v: 63-octet ACE domain: %v, want one match of %q", be, ms, fitsRef)
		}
		if ms := d.DetectDomainBackend(long, be); len(ms) != 0 {
			t.Errorf("%v: 64-octet ACE label matched: %v", be, ms)
		}
		if ms := d.DetectDomainBytesBackend([]byte(strings.ToUpper(long)), be); len(ms) != 0 {
			t.Errorf("%v: 64-octet uppercase ACE label matched: %v", be, ms)
		}
		if ms := d.DetectDomainBytesBackend([]byte("www."+long+".com"), be); len(ms) != 0 {
			t.Errorf("%v: 64-octet ACE domain matched: %v", be, ms)
		}
		if ms := d.DetectDomainBackend(rawLong+".com", be); len(ms) != 1 || ms[0].Reference != rawRef {
			t.Errorf("%v: %d-octet raw UTF-8 label: %v, want one match of %q", be, len(rawLong), ms, rawRef)
		}
	}
}

// TestMatchMaterialization pins how a match's strings are built: they
// are copies, never views of the caller's buffer; every matching label
// of a name carries its own IDN and Unicode forms under the name's one
// FQDN; and a root-dot bare label keeps the dot in FQDN but not in IDN.
func TestMatchMaterialization(t *testing.T) {
	d := NewDetector(testDB(t), []string{"google", "amazon", "microsoft"})
	goo, ama := ace(t, "gооgle"), ace(t, "amazоn")

	t.Run("buffer reuse", func(t *testing.T) {
		buf := []byte("www." + goo + ".co.uk")
		ms := d.DetectDomainBytesBackend(buf, BackendBoth)
		if len(ms) != 1 {
			t.Fatalf("matches = %v", ms)
		}
		want := ms[0]
		want.Diffs = slices.Clone(want.Diffs)
		for i := range buf {
			buf[i] = 'X'
		}
		got := ms[0]
		if got.FQDN != "www."+goo+".co.uk" || got.IDN != goo || got.Unicode != "gооgle" || got.TLD != "co.uk" ||
			got.FQDN != want.FQDN || got.IDN != want.IDN || got.Unicode != want.Unicode || got.TLD != want.TLD {
			t.Fatalf("after overwriting the input: %+v", got)
		}
	})

	t.Run("two matching labels", func(t *testing.T) {
		name := goo + "." + ama + ".com"
		for _, ms := range [][]Match{d.DetectDomainBackend(name, BackendPostings), d.DetectDomainBytesBackend([]byte(name), BackendPostings)} {
			if len(ms) != 2 {
				t.Fatalf("matches = %v", ms)
			}
			want := []struct{ idn, uni, ref string }{{goo, "gооgle", "google"}, {ama, "amazоn", "amazon"}}
			for i, w := range want {
				m := ms[i]
				if m.IDN != w.idn || m.Unicode != w.uni || m.Reference != w.ref || m.FQDN != name || m.TLD != "com" {
					t.Errorf("match %d = %+v, want IDN %q Unicode %q of %q in %q", i, m, w.idn, w.uni, w.ref, name)
				}
			}
		}
	})

	t.Run("root-dot bare label", func(t *testing.T) {
		for _, ms := range [][]Match{d.DetectDomainBackend(goo+".", BackendPostings), d.DetectDomainBytesBackend([]byte(goo+"."), BackendBoth)} {
			if len(ms) != 1 || ms[0].FQDN != goo+"." || ms[0].IDN != goo || ms[0].Unicode != "gооgle" || ms[0].TLD != "" {
				t.Fatalf("matches = %+v", ms)
			}
		}
	})
}

// TestCarveParity pins the text a hit carves against the decoder: a
// match's Unicode is punycode.ToUnicodeLabel of its IDN and its FQDN is
// the input, for labels holding 1-, 2-, 3- and 4-byte runes, in ACE and
// raw form, for a raw label too long for the stack path, and for the
// second matched label of a name, which carves only its Unicode form.
func TestCarveParity(t *testing.T) {
	uc := confusables.New()
	uc.Add(0x0430, []rune{'a'}, "CYRILLIC SMALL LETTER A")          // 2 bytes
	uc.Add(0xA731, []rune{'s'}, "LATIN LETTER SMALL CAPITAL S")     // 3 bytes
	uc.Add(0x1D5BA, []rune{'a'}, "MATHEMATICAL SANS-SERIF SMALL A") // 4 bytes
	uc.Add(0x1D5CC, []rune{'s'}, "MATHEMATICAL SANS-SERIF SMALL S") // 4 bytes
	d := NewDetector(homoglyph.New(uc, nil, 0), []string{"sassa", strings.Repeat("sassa", 8)})

	mixed := "ꜱа𝗌sa" // 3, 2, 4, 1 and 1 bytes
	second := "s𝖺ssа"
	long := strings.Repeat(mixed, 8)
	if len(long) <= d.skel.fold.stackLen {
		t.Fatalf("%d-byte raw label fits the %d-byte stack path", len(long), d.skel.fold.stackLen)
	}
	aceMixed, aceSecond := ace(t, mixed), ace(t, second)
	for _, c := range []struct {
		name   string
		labels int // matched labels, one match each
	}{
		{aceMixed, 1},
		{mixed + ".com", 1},
		{"www." + aceMixed + ".co.uk", 1},
		{long + ".com", 1},
		{aceMixed + "." + aceSecond + ".com", 2},
		{mixed + "." + second + "." + long + ".net", 3},
		{aceSecond + "." + long, 1},
	} {
		for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
			for _, ms := range [][]Match{d.DetectDomainBackend(c.name, be), d.DetectDomainBytesBackend([]byte(c.name), be)} {
				if len(ms) != c.labels {
					t.Fatalf("%v %q: %d matches, want %d: %+v", be, c.name, len(ms), c.labels, ms)
				}
				for _, m := range ms {
					uni, err := punycode.ToUnicodeLabel(m.IDN)
					if err != nil {
						t.Fatalf("%v %q: IDN %q: %v", be, c.name, m.IDN, err)
					}
					if m.Unicode != uni || m.FQDN != c.name || !utf8.ValidString(m.Unicode) {
						t.Errorf("%v %q: Unicode %q, FQDN %q; want %q, %q", be, c.name, m.Unicode, m.FQDN, uni, c.name)
					}
				}
			}
		}
	}
}

// TestHitAllocBudget pins the hit path's amortized allocations on the
// byte entry points. A hit carves its result slice, its strings and its
// diffs from the scratch slabs, so it allocates only when it fills one;
// the budget is a quarter of an allocation per hit of each kind.
// testing.AllocsPerRun truncates its average to an integer, so the
// count comes from runtime.MemStats over many hits.
func TestHitAllocBudget(t *testing.T) {
	if lint.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	d := NewDetector(testDB(t), []string{"google", "microsoft"})
	verified := []byte(ace(t, "gооgle") + ".com") // two Cyrillic о: a 2-diff hit
	skeletal := []byte("rnicrosoft.com")          // rn→m: a skeleton-only hit
	if ms := d.DetectDomainBytesBackend(verified, BackendPostings); len(ms) != 1 || len(ms[0].Diffs) != 2 {
		t.Fatalf("verified hit = %+v", ms)
	}
	if ms := d.DetectDomainBytesBackend(skeletal, BackendSkeleton); len(ms) != 1 || ms[0].Diffs != nil {
		t.Fatalf("skeleton hit = %+v", ms)
	}
	const hits, budget = 20000, 0.25
	for _, c := range []struct {
		kind string
		name []byte
		be   Backend
	}{{"verified 2-diff hit", verified, BackendPostings}, {"skeleton-only hit", skeletal, BackendSkeleton}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range hits {
			d.DetectDomainBytesBackend(c.name, c.be)
		}
		runtime.ReadMemStats(&after)
		if n := float64(after.Mallocs-before.Mallocs) / hits; n > budget {
			t.Errorf("%s: %.3f allocations per hit, budget %v", c.kind, n, budget)
		}
	}
}

// TestSlabIsolation pins that results carved from the scratch slabs are
// independent: across enough hits to replace every slab many times,
// appending to a returned match slice or to a match's Diffs changes no
// other result, and every stored string keeps its bytes. The stream
// half runs the same check on DetectLines' matches from concurrent
// workers, so the race detector sees any slab shared across calls.
func TestSlabIsolation(t *testing.T) {
	d := NewDetector(testDB(t), []string{"google", "amazon", "microsoft"})
	goo, ama := ace(t, "gооgle"), ace(t, "amazоn")
	// Hit i: a verified 2-diff hit, a skeleton-only hit (rn→m), or a
	// two-label name with a verified match in each label.
	name := func(i int) string {
		n := strconv.Itoa(i)
		switch i % 3 {
		case 0:
			return "s" + n + "." + goo + ".com"
		case 1:
			return "rnicrosoft.s" + n + ".com"
		}
		return goo + "." + ama + ".s" + n + ".com"
	}
	// frozen is a match's content, deep-copied so that no byte of it
	// comes from a slab.
	type frozen struct {
		fqdn, idn, uni, tld, ref string
		diffs                    []CharDiff
	}
	freeze := func(m Match) frozen {
		return frozen{strings.Clone(m.FQDN), strings.Clone(m.IDN), strings.Clone(m.Unicode), strings.Clone(m.TLD),
			m.Reference, slices.Clone(m.Diffs)}
	}
	same := func(m Match, w frozen) bool {
		return m.FQDN == w.fqdn && m.IDN == w.idn && m.Unicode == w.uni && m.TLD == w.tld &&
			m.Reference == w.ref && slices.Equal(m.Diffs, w.diffs)
	}
	junk := CharDiff{Pos: -1, Got: 'x', Want: 'y'}
	const n = 10000

	t.Run("sequential", func(t *testing.T) {
		results := make([][]Match, n)
		wants := make([][]frozen, n)
		var textBytes, diffs, matches int
		for i := range results {
			ms := d.DetectDomainBytesBackend([]byte(name(i)), BackendBoth)
			if want := 1 + i%3/2; len(ms) != want {
				t.Fatalf("%s: %d matches, want %d", name(i), len(ms), want)
			}
			results[i] = ms
			for _, m := range ms {
				wants[i] = append(wants[i], freeze(m))
				textBytes += len(m.FQDN) + len(m.Unicode)
				diffs += len(m.Diffs)
			}
			matches++ // one slab slot per call; a second match grows out of it
		}
		if textBytes < 4*textSlab || diffs < 4*diffSlab || matches < 4*matchSlab {
			t.Fatalf("%d text bytes, %d diffs, %d result slices: too few to replace every slab several times", textBytes, diffs, matches)
		}
		for i, ms := range results {
			if len(ms) == 1 && cap(ms) != 1 {
				t.Fatalf("%s: one match with cap %d", name(i), cap(ms))
			}
			// Appending writes past the result's end, where another
			// result would sit if the slab had handed out spare cap.
			grown := append(ms, Match{FQDN: "junk"})
			grown[len(ms)].IDN = "junk"
			for _, m := range ms {
				if cap(m.Diffs) != len(m.Diffs) {
					t.Fatalf("%s: Diffs cap %d, len %d", name(i), cap(m.Diffs), len(m.Diffs))
				}
				if m.Diffs != nil {
					grown := append(m.Diffs, junk)
					grown[len(m.Diffs)].Pos = -2
				}
			}
		}
		for i, ms := range results {
			for j, m := range ms {
				if !same(m, wants[i][j]) {
					t.Fatalf("%s match %d changed: %+v, want %+v", name(i), j, m, wants[i][j])
				}
			}
		}
	})

	t.Run("stream", func(t *testing.T) {
		var zone strings.Builder
		for i := range n {
			zone.WriteString(name(i) + "\n")
		}
		got, _, err := d.DetectLines(strings.NewReader(zone.String()), 4, BackendBoth)
		if err != nil {
			t.Fatal(err)
		}
		var wants []frozen
		for _, m := range got {
			wants = append(wants, freeze(m))
		}
		if want := n + n/3; len(got) != want {
			t.Fatalf("%d stream matches, want %d", len(got), want)
		}
		for _, m := range got {
			if m.Diffs != nil {
				grown := append(m.Diffs, junk)
				grown[len(m.Diffs)].Pos = -2
			}
		}
		for i, m := range got {
			if !same(m, wants[i]) {
				t.Fatalf("stream match %d changed: %+v, want %+v", i, m, wants[i])
			}
			if !strings.HasPrefix(m.FQDN, m.IDN) && !strings.Contains(m.FQDN, "."+m.IDN+".") || !strings.HasSuffix(m.FQDN, "."+m.TLD) {
				t.Fatalf("stream match %d: IDN %q or TLD %q not in FQDN %q", i, m.IDN, m.TLD, m.FQDN)
			}
		}
	})
}
