package shamfinder

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	fwOnce sync.Once
	fwVal  *Framework
	fwErr  error
)

func framework(t testing.TB) *Framework {
	t.Helper()
	fwOnce.Do(func() {
		fwVal, fwErr = New(Config{FontScope: FontFast})
	})
	if fwErr != nil {
		t.Fatalf("New: %v", fwErr)
	}
	return fwVal
}

func TestNewBuildsDatabases(t *testing.T) {
	fw := framework(t)
	if fw.DB() == nil || fw.Font() == nil {
		t.Fatal("nil internals")
	}
	if fw.DB().SimChar().NumPairs() == 0 {
		t.Error("SimChar is empty")
	}
	tm := fw.BuildTimings()
	if tm.CandidatePairs == 0 {
		t.Error("no candidate pairs were compared")
	}
}

func TestDetectEndToEnd(t *testing.T) {
	fw := framework(t)
	det := fw.NewDetector([]string{"google", "facebook", "amazon"})

	// Build a homograph with a known twin: Cyrillic о (U+043E) for o.
	ace, err := ToASCII("gооgle.com")
	if err != nil {
		t.Fatal(err)
	}
	label := strings.TrimSuffix(ace, ".com")
	matches := det.DetectDomainBackend(label, BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	m := matches[0]
	if m.Reference != "google" {
		t.Errorf("reference = %q", m.Reference)
	}
	if len(m.Diffs) != 2 {
		t.Errorf("diffs = %v", m.Diffs)
	}
}

func TestDetectCleanLabel(t *testing.T) {
	fw := framework(t)
	det := fw.NewDetector([]string{"google"})
	if matches := det.DetectDomainBackend("xn--bcher-kva", BackendPostings); len(matches) != 0 {
		t.Errorf("bücher matched google: %v", matches)
	}
}

func TestRevert(t *testing.T) {
	fw := framework(t)
	got := fw.Revert("gооgle") // Cyrillic о ×2
	if got != "google" {
		t.Errorf("Revert = %q", got)
	}
}

func TestWarn(t *testing.T) {
	fw := framework(t)
	det := fw.NewDetector([]string{"google"})
	ace, _ := ToASCII("gооgle")
	matches := det.DetectDomainBackend(ace, BackendPostings)
	if len(matches) == 0 {
		t.Fatal("no match to warn about")
	}
	w := fw.Warn(matches[0])
	text := w.Text()
	if !strings.Contains(text, "google") {
		t.Errorf("warning text lacks original: %q", text)
	}
	if !strings.Contains(w.HTML(), "google") {
		t.Error("warning HTML lacks original")
	}
}

func TestConfusableAndHomoglyphs(t *testing.T) {
	fw := framework(t)
	ok, src := fw.Confusable('o', 'о') // Latin o vs Cyrillic о
	if !ok {
		t.Fatal("known twin not confusable")
	}
	if src == 0 {
		t.Error("no source attributed")
	}
	if len(fw.Homoglyphs('o')) == 0 {
		t.Error("no homoglyphs of o")
	}
}

func TestSourceRestriction(t *testing.T) {
	font := framework(t).Font()
	ucOnly, err := NewFromFont(font, Config{Sources: SourceUC})
	if err != nil {
		t.Fatal(err)
	}
	both, err := NewFromFont(font, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The union database must know at least as many homoglyphs of
	// every Latin letter, and strictly more in total (Table 3: 351
	// SimChar vs 141 UC).
	totalUC, totalBoth := 0, 0
	for r := 'a'; r <= 'z'; r++ {
		nUC, nBoth := len(ucOnly.Homoglyphs(r)), len(both.Homoglyphs(r))
		if nBoth < nUC {
			t.Errorf("%c: union %d < UC %d", r, nBoth, nUC)
		}
		totalUC += nUC
		totalBoth += nBoth
	}
	if totalBoth <= totalUC {
		t.Errorf("union homoglyphs %d not above UC-only %d", totalBoth, totalUC)
	}
}

func TestExtractIDNs(t *testing.T) {
	got := ExtractIDNs([]string{"plain.com", "xn--bcher-kva.com", "sub.xn--p1ai"})
	if len(got) != 2 {
		t.Errorf("ExtractIDNs = %v", got)
	}
	if IsIDN("plain.com") || !IsIDN("xn--bcher-kva.com") {
		t.Error("IsIDN mismatch")
	}
}

func TestPunycodeHelpers(t *testing.T) {
	ace, err := ToASCII("bücher.com")
	if err != nil {
		t.Fatal(err)
	}
	if ace != "xn--bcher-kva.com" {
		t.Errorf("ToASCII = %q", ace)
	}
	uni, err := ToUnicode(ace)
	if err != nil {
		t.Fatal(err)
	}
	if uni != "bücher.com" {
		t.Errorf("ToUnicode = %q", uni)
	}
}

func TestWriteSimChar(t *testing.T) {
	fw := framework(t)
	var buf bytes.Buffer
	if err := fw.WriteSimChar(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty SimChar serialisation")
	}
}

func TestNewWithBadFontPath(t *testing.T) {
	if _, err := New(Config{FontPath: "/nonexistent/font.hex"}); err == nil {
		t.Error("missing font accepted")
	}
}

func TestMultiFontStylesGrowDatabase(t *testing.T) {
	base := framework(t)
	multi, err := New(Config{FontScope: FontFast, ExtraStyles: []uint64{99}})
	if err != nil {
		t.Fatal(err)
	}
	nBase := base.DB().SimChar().NumPairs()
	nMulti := multi.DB().SimChar().NumPairs()
	if nMulti <= nBase {
		t.Errorf("multi-font pairs %d not above single-font %d", nMulti, nBase)
	}
}

func TestThresholdAffectsPairCount(t *testing.T) {
	font := framework(t).Font()
	strict, err := NewFromFont(font, Config{Threshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := NewFromFont(font, Config{Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	ns := strict.DB().SimChar().NumPairs()
	nl := loose.DB().SimChar().NumPairs()
	if ns >= nl {
		t.Errorf("θ=1 pairs %d not below θ=6 pairs %d", ns, nl)
	}
}

// --- PR 2: snapshots and zero-allocation ingestion ---

func TestSnapshotFacadeRoundTrip(t *testing.T) {
	fw := framework(t)
	det := fw.NewDetector([]string{"google", "facebook", "amazon"})
	path := t.TempDir() + "/fw.snap"
	if err := fw.SaveSnapshot(path, det); err != nil {
		t.Fatal(err)
	}
	lfw, ldet, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if ldet == nil {
		t.Fatal("embedded detector lost")
	}
	if lfw.Font() != nil {
		t.Error("snapshot-loaded framework should have no font")
	}
	ace, _ := ToASCII("gооgle.com") // two Cyrillic о
	label := strings.TrimSuffix(ace, ".com")
	want := det.DetectDomainBackend(label, BackendPostings)
	got := ldet.DetectDomainBackend(label, BackendPostings)
	if len(got) != 1 || len(want) != 1 || got[0].Reference != want[0].Reference ||
		got[0].Unicode != want[0].Unicode || len(got[0].Diffs) != len(want[0].Diffs) {
		t.Fatalf("snapshot detector diverges: got %v want %v", got, want)
	}
	if lfw.Revert("gооgle") != "google" {
		t.Error("Revert broken after snapshot load")
	}
}

func TestSnapshotFileWithoutDetector(t *testing.T) {
	fw := framework(t)
	path := filepath.Join(t.TempDir(), "db.snap")
	if err := fw.SaveSnapshot(path, nil); err != nil {
		t.Fatal(err)
	}
	lfw, det, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if det != nil {
		t.Error("unexpected embedded detector")
	}
	if ok, _ := lfw.Confusable('o', 'о'); !ok {
		t.Error("known twin lost in snapshot")
	}
}

func TestNormalizeZoneLine(t *testing.T) {
	cases := []struct {
		in   string
		want string
		keep bool
	}{
		{"", "", false},
		{"   \t", "", false},
		{"plain.com", "", false}, // not an IDN
		{".", "", false},         // bare root
		{"xn--bcher-kva.com", "xn--bcher-kva.com", true},  // FQDN kept, TLD and all
		{"XN--BCHER-KVA.COM", "xn--bcher-kva.com", true},  // case-folded
		{"xn--bcher-kva.net", "xn--bcher-kva.net", true},  // non-.com zones visible
		{"xn--bcher-kva.net.", "xn--bcher-kva.net", true}, // root dot dropped
		{"www.XN--GGLE-55DA.CO.UK", "www.xn--ggle-55da.co.uk", true},
		{"  xn--p1ai \r", "xn--p1ai", true}, // trimmed; bare ACE label kept
		{"xn--p1ai.sub", "xn--p1ai.sub", true},
		// A plain registrable label under an IDN TLD has no scannable
		// candidate — the detector never scans the suffix — so the
		// feeder rejects it before the pooled copy and worker handoff.
		{"sub.xn--p1ai", "", false},
		{"notxn--fake.com", "", false}, // prefix must start a label
		// A master-file record keeps its owner name, gated on its own.
		{"xn--ggle-55da.com 3600 IN NS ns1.example.", "xn--ggle-55da.com", true},
		{"XN--GGLE-55DA.COM.\t3600\tIN\tA\t1.2.3.4\r", "xn--ggle-55da.com", true},
		{"plain.com. 3600 IN NS ns1.xn--p1ai.", "", false},
		{"plain.com IN TXT xn--a", "", false},
	}
	for _, c := range cases {
		buf := []byte(c.in)
		got, ok := NormalizeZoneLine(buf, BackendPostings)
		if ok != c.keep {
			t.Errorf("NormalizeZoneLine(%q) keep = %v, want %v", c.in, ok, c.keep)
			continue
		}
		if ok && string(got) != c.want {
			t.Errorf("NormalizeZoneLine(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// naiveNormalizeZoneLine is the allocation-heavy reference
// implementation of the zone-line contract under backend be: one
// leading byte-order mark dropped, ASCII whitespace trimmed, the first space- or tab-separated field kept (a
// master-file record's owner name) and trimmed, one root dot dropped,
// the scannable-candidate gate unless be includes the skeleton index,
// ASCII lowercase. The in-place NormalizeZoneLine is differentially
// fuzzed against it.
func naiveNormalizeZoneLine(line string, be Backend) (string, bool) {
	const space = " \t\r\n\f\v"
	s := strings.Trim(strings.TrimPrefix(line, "\ufeff"), space)
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		s = strings.Trim(s[:i], space)
	}
	s = strings.TrimSuffix(s, ".")
	if s == "" || be&BackendSkeleton == 0 && !naiveScannable(s) {
		return "", false
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b), true
}

// naiveScannable spells out the gate via Split: any non-ASCII byte, or
// an ACE label that is not the name's final label (a bare ACE label
// counts — it IS the name).
func naiveScannable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return true
		}
	}
	labels := strings.Split(s, ".")
	for i, l := range labels {
		if strings.HasPrefix(strings.ToLower(l), "xn--") && (len(labels) == 1 || i < len(labels)-1) {
			return true
		}
	}
	return false
}

// TestNormalizeZoneLineWordBoundaries drives the gate's word-at-a-time
// pre-checks across every alignment: each probe sits at every offset of
// lines 1 to 48 bytes long (past the 22-byte edge of the three-load
// fast path and two stride-7 steps beyond it), on a dot-free and a
// dotted background, and NormalizeZoneLine must agree with the naive
// reference. The probes are the pre-check's two signals ("--", ACE
// prefixes at a label start and mid-label, a byte >= 0x80), its near
// misses (a lone '-', and "-,", which the SWAR hyphen test flags
// falsely), the trailing root dot, and multi-label names under the ACE
// TLD .xn--p1ai, whose "--" the left-of-TLD check must ignore. Because
// the first pre-check reads the raw line, every line is also tried
// inside whitespace padding, with a CRLF ending and with a root dot.
func TestNormalizeZoneLineWordBoundaries(t *testing.T) {
	probes := []string{
		"--", "xn--", "XN--", ".xn--", ".XN--", "axn--", "aXN--",
		"-", "-,", ",-", "-,-", "\x80", "\xff", ".",
	}
	for _, p := range []string{"a--b.xn--p1ai", "xn--a.xn--p1ai", "a.xn--b.xn--p1ai", "plain.sub.xn--p1ai", "xn--p1ai"} {
		probes = append(probes, p, p+".")
	}
	backgrounds := []func(i int) byte{
		func(int) byte { return 'a' },
		func(i int) byte { return ".ab"[i%3] },
	}
	pads := [][2]string{{"", ""}, {"  ", "\t "}, {"\t", "\r\n"}, {"", "."}, {" \t", ".\r\n"}}
	buf := make([]byte, 48)
	for n := 1; n <= 48; n++ {
		for _, p := range probes {
			for at := 0; at+len(p) <= n; at++ {
				for _, bg := range backgrounds {
					for i := range n {
						buf[i] = bg(i)
					}
					copy(buf[at:], p)
					for _, pad := range pads {
						line := pad[0] + string(buf[:n]) + pad[1]
						got, ok := NormalizeZoneLine([]byte(line), BackendPostings)
						want, wantOK := naiveNormalizeZoneLine(line, BackendPostings)
						if ok != wantOK || (ok && string(got) != want) {
							t.Errorf("NormalizeZoneLine(%q) = %q, %v; naive = %q, %v", line, got, ok, want, wantOK)
						}
					}
				}
			}
		}
	}
}

// FuzzNormalizeZoneLine: the in-place fast paths, gated under the
// posting backend and ungated under the skeleton backend and both, must
// agree with the naive reference on arbitrary bytes — including
// non-UTF-8 garbage, interior dots, whitespace runs, master-file
// records and byte-order marks. `go test` runs the seed corpus;
// `go test -fuzz=FuzzNormalizeZoneLine` explores further.
func FuzzNormalizeZoneLine(f *testing.F) {
	for _, s := range []string{
		"", " ", ".", "..", "xn--a.com", " XN--A.NET. ", "sub.xn--p1ai",
		"notxn--fake.com", "xn--a..", "\txn--b.co.uk\r\n", "plain.com",
		"xn--", "a.b.xn--c", "xn--a.com extra", "\x80xn--a.com", "XN--A",
	} {
		f.Add(s)
	}
	// Multi-label names under an ACE TLD, bare and with a root dot,
	// plain and padded: the left-of-TLD check must ignore the TLD's "--".
	for _, s := range []string{"a--b.xn--p1ai", "xn--a.xn--p1ai", "a.xn--b.xn--p1ai", "plain.sub.xn--p1ai", "xn--p1ai"} {
		f.Add(s)
		f.Add(s + ".")
		f.Add(" \t" + s + ".\r\n")
	}
	// "--" on and around word-load edges, in lines that end inside, on
	// and just past the three-load fast path's 22-byte edge and the
	// stride-7 loads beyond it.
	for _, n := range []int{7, 8, 9, 15, 16, 17, 21, 22, 23, 29, 30} {
		for _, at := range []int{5, 6, 7, 13, 14, 15, 20, 21, 27} {
			if at+2 <= n {
				b := []byte(strings.Repeat("a", n))
				copy(b[at:], "--")
				f.Add(string(b))
				if at >= 3 && at+3 < n { // "xn--" left of a dot: a keep
					copy(b[at-3:], ".xn--.")
					f.Add(string(b))
				}
			}
		}
	}
	// The lowercase word test's edges — '@' and '[' around 'A'–'Z',
	// and 0xC1, whose low seven bits read 'A' — on both sides of the
	// first and second word boundaries, in lines that end there and
	// in lines that run on into the overlapping tail load.
	for _, c := range []byte{'@', 'A', 'Z', '[', 0xC1} {
		for _, at := range []int{7, 8, 15, 16} {
			for _, n := range []int{at + 1, 20, 27} {
				if at < n {
					b := []byte(strings.Repeat("xn--a.", 5)[:n])
					b[at] = c
					f.Add(string(b))
				}
			}
		}
	}
	// Master-file records, space- and tab-separated, whose owner name
	// the gate keeps or drops on its own, and whose rdata holds an ACE
	// label or a root dot.
	for _, s := range []string{
		"xn--ggle-55da.com 3600 IN NS ns1.example.", "XN--GGLE-55DA.COM.\t3600\tIN\tA\t1.2.3.4\r\n",
		"plain.com. 3600 IN NS ns1.xn--p1ai.", "plain.com IN TXT xn--a", "xn--a IN TXT b",
		"rnicrosoft.com 300 IN A 10.0.0.1", " . IN NS xn--a.com.", "xn--a.com.\f\vb",
	} {
		f.Add(s)
	}
	// Byte-order marks: one leading mark is dropped before the gate; a
	// second, or one after whitespace, stays part of the name.
	for _, s := range []string{
		"\ufeffxn--a.com", "\ufeffplain.com", "\ufeff", "\ufeff\ufeffxn--a.com", " \ufeffxn--a.com",
		"\ufeff\ufeffplain.com 3600 IN NS a.", "\ufeffXN--A.COM.\t3600\tIN\tA\t1.2.3.4\r\n", "\xef\xbbxn--a.com",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
			got, ok := NormalizeZoneLine([]byte(line), be)
			want, wantOK := naiveNormalizeZoneLine(line, be)
			if ok != wantOK || string(got) != want {
				t.Fatalf("NormalizeZoneLine(%q, %v) = %q, %v; naive = %q, %v", line, be, got, ok, want, wantOK)
			}
		}
	})
}

// TestNormalizeZoneLineAllocs: the per-line feeder primitive must not
// allocate, keep or miss.
func TestNormalizeZoneLineAllocs(t *testing.T) {
	idn := []byte("XN--GGLE-55DA.COM")
	plain := []byte("just-a-plain-domain.com")
	buf := make([]byte, 64)
	if n := testing.AllocsPerRun(200, func() {
		copy(buf, idn)
		NormalizeZoneLine(buf[:len(idn)], BackendPostings)
	}); n != 0 {
		t.Errorf("NormalizeZoneLine(IDN) allocates %.1f/line", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		copy(buf, plain)
		NormalizeZoneLine(buf[:len(plain)], BackendPostings)
	}); n != 0 {
		t.Errorf("NormalizeZoneLine(plain) allocates %.1f/line", n)
	}
}

// TestDetectDomainBytesMissAllocs: the whole per-line pipeline —
// normalize, split, decode, candidate-index probe — must allocate
// nothing for domains that match no reference, across TLD shapes.
func TestDetectDomainBytesMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	fw := framework(t)
	det := fw.NewDetector([]string{"google", "amazon"})
	lines := [][]byte{
		[]byte("xn--bcher-kva.com"),
		[]byte("xn--bcher-kva.net"),
		[]byte("xn--bcher-kva.co.uk"),
		[]byte("www.xn--bcher-kva.com"),
		[]byte("xn--bcher-kva.xn--p1ai"),
		[]byte("plain-label.xn--p1ai"),
	}
	buf := make([]byte, 0, 80)
	// Warm the detector's scratch pool outside the measured region.
	for _, l := range lines {
		buf = append(buf[:0], l...)
		if fqdn, ok := NormalizeZoneLine(buf, BackendPostings); ok {
			det.DetectDomainBytesBackend(fqdn, BackendPostings)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		for _, l := range lines {
			buf = append(buf[:0], l...)
			fqdn, ok := NormalizeZoneLine(buf, BackendPostings)
			if !ok {
				continue
			}
			if ms := det.DetectDomainBytesBackend(fqdn, BackendPostings); len(ms) != 0 {
				t.Fatal("unexpected match")
			}
		}
	}); n != 0 {
		t.Errorf("miss-path pipeline allocates %.1f per sweep; want 0", n)
	}
}

// TestDetectLinesMatchesBatch: the line reader must find exactly what
// the batch API finds.
func TestDetectLinesMatchesBatch(t *testing.T) {
	fw := framework(t)
	det := fw.NewDetector([]string{"google", "facebook", "amazon"})
	ace1, _ := ToASCII("gооgle")   // Cyrillic о ×2
	ace2, _ := ToASCII("fаcebook") // Cyrillic а
	labels := []string{ace1, "clean-label", ace2, "another", ace1}
	want := det.Detect(labels)

	got, scanned, err := det.DetectLines(strings.NewReader(strings.Join(labels, "\n")), 3, BackendPostings)
	if err != nil || scanned != 3 {
		t.Fatalf("scanned %d lines, err %v; want 3 IDN lines", scanned, err)
	}
	if len(got) != len(want) {
		t.Fatalf("lines found %d matches, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i].IDN != want[i].IDN || got[i].Reference != want[i].Reference || got[i].Unicode != want[i].Unicode {
			t.Fatalf("match %d diverges: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestDetectMultiTLDEndToEnd drives cmdDetect's pipeline, DetectLines,
// over a zone slice spanning .com, .net, a multi-label suffix, and an IDN TLD.
// The seed pipeline (strip ".com", treat the rest as one label)
// silently missed every non-.com line here (internal/core's
// TestLabelPathDoesNotSplit re-enacts that miss); the test asserts the
// domain-aware pipeline finds them all with the right FQDN/TLD context.
func TestDetectMultiTLDEndToEnd(t *testing.T) {
	fw := framework(t)
	det := fw.NewDetector([]string{"google", "amazon"})
	g, _ := ToASCII("gооgle") // Cyrillic о ×2
	a, _ := ToASCII("amаzon") // Cyrillic а

	zone := []string{
		"plain.net",                  // not an IDN: rejected at the gate
		g + ".net",                   // non-.com gTLD
		"www." + g + ".com",          // multi-label FQDN, IDN in non-final label
		g + ".xn--p1ai",              // ACE/IDN TLD
		a + ".co.uk",                 // multi-label public suffix
		strings.ToUpper(g) + ".NET.", // uppercase + root dot
	}

	matches, _, err := det.DetectLines(strings.NewReader(strings.Join(zone, "\n")), 2, BackendPostings)
	if err != nil {
		t.Fatal(err)
	}

	type hit struct{ fqdn, ref, tld, imitated string }
	var got []hit
	for _, m := range matches {
		got = append(got, hit{m.FQDN, m.Reference, m.TLD, m.Imitated()})
	}
	want := []hit{ // sorted by FQDN: "www." < "xn--"
		{"www." + g + ".com", "google", "com", "google.com"},
		{a + ".co.uk", "amazon", "co.uk", "amazon.co.uk"},
		{g + ".net", "google", "net", "google.net"},
		{g + ".net", "google", "net", "google.net"}, // the uppercase spelling, normalized
		{g + ".xn--p1ai", "google", "xn--p1ai", "google.xn--p1ai"},
	}
	if len(got) != len(want) {
		t.Fatalf("matches = %+v, want %d hits %+v", got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestDetectLabelBytesDoesNotRetain: the engine must not alias the
// caller's buffer in returned matches — the buffer is recycled.
func TestDetectLabelBytesDoesNotRetain(t *testing.T) {
	fw := framework(t)
	det := fw.NewDetector([]string{"google"})
	ace, _ := ToASCII("gооgle")
	buf := []byte(ace)
	matches := det.DetectDomainBytesBackend(buf, BackendPostings)
	if len(matches) != 1 {
		t.Fatalf("matches = %v", matches)
	}
	for i := range buf {
		buf[i] = 'Z' // clobber, as a recycled buffer would be
	}
	if matches[0].IDN != ace {
		t.Fatalf("match IDN %q aliases the recycled buffer", matches[0].IDN)
	}
}
