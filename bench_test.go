// Root benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (see DESIGN.md §3 for the index), plus
// ablation benches for the design choices the implementation makes.
//
// Run everything once (regenerating each artifact a single time):
//
//	go test -bench=. -benchtime=1x -benchmem .
//
// The benches share one experiment environment (synthetic fast font,
// small benign scale) built lazily on first use; per-iteration work is
// the real pipeline stage, not a cached lookup.
package shamfinder

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dnsclient"
	"repro/internal/dnsserver"
	"repro/internal/experiments"
	"repro/internal/homoglyph"
	"repro/internal/hostsim"
	"repro/internal/punycode"
	"repro/internal/reflist"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/simchar"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/triage"
	"repro/internal/ucd"
	"repro/internal/webclassify"
	"repro/internal/websim"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func benchSetup(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.Options{
			Seed: 7, Scale: 0.0001, FastFont: true,
		})
	})
	return benchEnv
}

// runExperiment executes one experiment builder b.N times.
func runExperiment(b *testing.B, f func(e *experiments.Env) error) {
	e := benchSetup(b)
	// Warm the shared fixtures outside the timed region.
	e.DB()
	if _, err := e.Registry(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable01_CharacterSets(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		exp := experiments.Table1(e)
		if len(exp.Comparisons) == 0 {
			b.Fatal("no comparisons")
		}
		return nil
	})
}

func BenchmarkTable02_FontCoverage(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		experiments.Table2(e)
		return nil
	})
}

func BenchmarkTable03_LatinHomoglyphs(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		experiments.Table3(e)
		return nil
	})
}

func BenchmarkTable04_UnicodeBlocks(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		experiments.Table4(e)
		return nil
	})
}

// BenchmarkTable05_BuildTime is the SimChar construction itself — the
// paper's 10.9-hour pipeline stage.
func BenchmarkTable05_BuildTime(b *testing.B) {
	e := benchSetup(b)
	font := e.Font()
	idna := ucd.IDNASet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, tim := simchar.Build(font, idna, simchar.Options{})
		if db.NumPairs() == 0 {
			b.Fatal("empty SimChar")
		}
		b.ReportMetric(float64(tim.CandidatePairs), "candidate-pairs")
	}
}

func BenchmarkTable06_DomainLists(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Table6(e)
		return err
	})
}

func BenchmarkTable07_Languages(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Table7(e)
		return err
	})
}

// benchDetector builds the detection inputs once.
func benchDetector(b *testing.B, src homoglyph.Source) (*core.Detector, []string) {
	e := benchSetup(b)
	reg, err := e.Registry()
	if err != nil {
		b.Fatal(err)
	}
	det := core.NewDetector(e.DB().WithSources(src), e.Refs().SLDs(10000))
	idns := reg.IDNs()
	labels := make([]string, len(idns))
	for i, d := range idns {
		labels[i] = strings.TrimSuffix(d, ".com")
	}
	return det, labels
}

// BenchmarkTable08_Detection measures the union-database Algorithm 1
// sweep that produces Table 8's 3,280 detections.
func BenchmarkTable08_Detection(b *testing.B) {
	det, labels := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches := det.Detect(labels)
		if len(matches) == 0 {
			b.Fatal("no detections")
		}
	}
}

func BenchmarkTable09_TopTargets(b *testing.B) {
	det, labels := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	matches := det.Detect(labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hist := core.TargetHistogram(matches)
		if len(hist) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

func BenchmarkTable10_PortScan(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Table10(e)
		return err
	})
}

func BenchmarkTable11_PassiveDNS(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Table11(e)
		return err
	})
}

func BenchmarkTable12_WebClasses(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Table12(e)
		return err
	})
}

func BenchmarkTable13_Redirects(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Table13(e)
		return err
	})
}

func BenchmarkTable14_Blacklists(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Table14(e)
		return err
	})
}

func BenchmarkFigure06_DeltaLadder(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		experiments.Figure6(e)
		return nil
	})
}

func BenchmarkFigure09_ThresholdStudy(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		experiments.Figure9(e)
		return nil
	})
}

func BenchmarkFigure10_Confusability(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		experiments.Figure10(e)
		return nil
	})
}

// BenchmarkDetectionThroughput measures Section 4.2's per-reference
// scan rate (paper: 0.07 s/reference over 955k IDNs) on the indexed,
// parallel engine.
func BenchmarkDetectionThroughput(b *testing.B) {
	det, labels := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	refs := len(det.References())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(labels)
	}
	b.StopTimer()
	perRef := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(refs)
	b.ReportMetric(perRef, "ns/reference")
	b.ReportMetric(float64(len(labels))*float64(b.N)/b.Elapsed().Seconds(), "labels/s")
}

// BenchmarkDetectionThroughputLinear is the same sweep on the seed
// linear-scan engine — the "before" side of the tentpole ablation.
func BenchmarkDetectionThroughputLinear(b *testing.B) {
	det, labels := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	refs := len(det.References())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range labels {
			det.DetectLabelLinear(l)
		}
	}
	b.StopTimer()
	perRef := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(refs)
	b.ReportMetric(perRef, "ns/reference")
	b.ReportMetric(float64(len(labels))*float64(b.N)/b.Elapsed().Seconds(), "labels/s")
}

// BenchmarkDetection1kRefs pits the indexed engine against the seed
// linear scan on a 1,000-reference list — the acceptance workload for
// the candidate-index refactor.
func BenchmarkDetection1kRefs(b *testing.B) {
	e := benchSetup(b)
	reg, err := e.Registry()
	if err != nil {
		b.Fatal(err)
	}
	det := core.NewDetector(e.DB(), e.Refs().SLDs(1000))
	idns := reg.IDNs()
	labels := make([]string, len(idns))
	for i, d := range idns {
		labels[i] = strings.TrimSuffix(d, ".com")
	}
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			det.Detect(labels)
		}
		b.ReportMetric(float64(len(labels))*float64(b.N)/b.Elapsed().Seconds(), "labels/s")
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, l := range labels {
				det.DetectLabelLinear(l)
			}
		}
		b.ReportMetric(float64(len(labels))*float64(b.N)/b.Elapsed().Seconds(), "labels/s")
	})
}

// BenchmarkDetectionStream pushes the IDN corpus through DetectLines,
// the zone-file entry point: one line per label, read, normalized,
// detected across GOMAXPROCS workers and sorted.
func BenchmarkDetectionStream(b *testing.B) {
	det, labels := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	zone := strings.Join(labels, "\n")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matches, _, err := det.DetectLines(strings.NewReader(zone), 0, core.BackendPostings)
		if err != nil || len(matches) == 0 {
			b.Fatalf("stream found %d matches, err %v", len(matches), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(labels))*float64(b.N)/b.Elapsed().Seconds(), "labels/s")
}

// BenchmarkDetectLabelMiss measures the steady-state per-label cost of
// a label that matches nothing — the common case in a zone sweep. The
// indexed engine rejects in O(label) with O(1) allocations; the seed
// engine walked (and re-converted) every same-length reference.
func BenchmarkDetectLabelMiss(b *testing.B) {
	det, _ := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	const miss = "zzqjvkwx" // ASCII, same length as many refs, no homoglyph path
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// The posting gate would skip an ASCII label unprobed; with
			// the skeleton backend it pays the decode, fold and probe.
			if m := det.DetectDomainBackend(miss, core.BackendBoth); len(m) != 0 {
				b.Fatal("unexpected match")
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := det.DetectLabelLinear(miss); len(m) != 0 {
				b.Fatal("unexpected match")
			}
		}
	})
}

// BenchmarkRevert measures Section 6.4's homograph-to-original
// reversion.
func BenchmarkRevert(b *testing.B) {
	e := benchSetup(b)
	reg, err := e.Registry()
	if err != nil {
		b.Fatal(err)
	}
	db := e.DB()
	labels := make([]string, 0, len(reg.Homographs))
	for i := range reg.Homographs {
		labels = append(labels, reg.Homographs[i].Label)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range labels {
			if db.Revert(l) == "" {
				b.Fatal("empty reversion")
			}
		}
	}
}

// --- Ablation benches: the design choices DESIGN.md §3 calls out. ---

// BenchmarkAblationNaiveVsBanded compares the paper's naive O(n²)
// pairwise Δ scan against this implementation's banded pigeonhole
// index, on the same font.
func BenchmarkAblationNaiveVsBanded(b *testing.B) {
	e := benchSetup(b)
	font := e.Font()
	idna := ucd.IDNASet()
	b.Run("banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simchar.Build(font, idna, simchar.Options{})
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simchar.Build(font, idna, simchar.Options{Naive: true})
		}
	})
}

// BenchmarkAblationLengthBuckets compares Algorithm 1's same-length
// restriction against matching every IDN to every reference.
func BenchmarkAblationLengthBuckets(b *testing.B) {
	det, labels := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	b.Run("bucketed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			det.Detect(labels)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		refs := det.References()
		db := det.DB()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, label := range labels {
				for _, ref := range refs {
					if confusableLabels(db, ref, label) {
						n++
					}
				}
			}
		}
	})
}

// confusableLabels is the unbucketed per-pair check used by the
// exhaustive ablation (it still early-exits on length, as any correct
// implementation must, but pays the full pairing loop).
func confusableLabels(db *homoglyph.DB, ref, idn string) bool {
	r := []rune(ref)
	x := []rune(idn)
	if len(r) != len(x) {
		return false
	}
	for i := range r {
		if r[i] == x[i] {
			continue
		}
		if ok, _ := db.Confusable(r[i], x[i]); !ok {
			return false
		}
	}
	return true
}

// BenchmarkAblationThreshold sweeps the SimChar Δ cutoff, showing how
// pair count (and build time) grows with θ.
func BenchmarkAblationThreshold(b *testing.B) {
	e := benchSetup(b)
	font := e.Font()
	idna := ucd.IDNASet()
	for _, theta := range []int{1, 2, 4, 6, 8} {
		theta := theta
		b.Run(thetaName(theta), func(b *testing.B) {
			var pairs int
			for i := 0; i < b.N; i++ {
				db, _ := simchar.Build(font, idna, simchar.Options{Threshold: theta})
				pairs = db.NumPairs()
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

func thetaName(t int) string {
	return "theta=" + string(rune('0'+t))
}

// BenchmarkSection22_BrowserGap evaluates the browser display policy
// over every detected homograph.
func BenchmarkSection22_BrowserGap(b *testing.B) {
	runExperiment(b, func(e *experiments.Env) error {
		_, err := experiments.Section22(e)
		return err
	})
}

// BenchmarkAblationMultiFont compares single-font SimChar against the
// Section 7.1 multi-style union.
func BenchmarkAblationMultiFont(b *testing.B) {
	e := benchSetup(b)
	e.DB() // warm
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.Table3(e)
		}
	})
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exp := experiments.Extension71(e)
			if len(exp.Comparisons) == 0 {
				b.Fatal("no comparisons")
			}
		}
	})
}

// BenchmarkAblationRasterization compares the centered 1:1 embedding
// (which keeps Δ equal to native pixel distance, as the paper's
// Figure 6 requires) against nearest-neighbour magnification.
func BenchmarkAblationRasterization(b *testing.B) {
	e := benchSetup(b)
	font := e.Font()
	g, ok := font.Glyph('e')
	if !ok {
		b.Fatal("no glyph for e")
	}
	b.Run("centered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Rasterize()
		}
	})
	b.Run("magnified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.RasterizeScaled()
		}
	})
}

// --- PR 2: cold start and ingestion benches ---

// BenchmarkColdStart compares the ways a process can obtain a ready
// engine: rebuilding the font + SimChar + UC pipeline from scratch
// (what every seed-era process paid — "build" is the full-font pipeline
// a production snapshot replaces, "build-fastfont" the CJK/Hangul-free
// variant) versus loading the compiled snapshot file. The acceptance
// bar for the snapshot subsystem is load ≥ 10× faster than the build it
// replaces.
func BenchmarkColdStart(b *testing.B) {
	refs := benchSetup(b).Refs().SLDs(10000)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fw, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			if fw.NewDetector(refs) == nil {
				b.Fatal("nil detector")
			}
		}
	})
	b.Run("build-fastfont", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fw, err := New(Config{FontScope: FontFast})
			if err != nil {
				b.Fatal(err)
			}
			if fw.NewDetector(refs) == nil {
				b.Fatal("nil detector")
			}
		}
	})
	fast, err := New(Config{FontScope: FontFast})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("list", func(b *testing.B) {
		dir := b.TempDir()
		snapPath, refsPath := dir+"/db.snap", dir+"/refs.txt"
		if err := fast.SaveSnapshot(snapPath, nil); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(refsPath, []byte(strings.Join(refs, "\n")+"\n"), 0o644); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db, _, err := snapshot.ReadFile(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			list, err := reflist.Load(refsPath)
			if err != nil {
				b.Fatal(err)
			}
			if core.NewDetector(db, list).NumReferences() != len(refs) {
				b.Fatal("detector lost references")
			}
		}
	})
	full, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	// snapshot loads an embedded detector on the full font and
	// snapshot-fastfont on the fast font: the per-rune rows the file
	// stores save more of the load on the full font, whose classes are
	// larger.
	for _, c := range []struct {
		name string
		fw   *Framework
	}{{"snapshot", full}, {"snapshot-fastfont", fast}} {
		path := b.TempDir() + "/coldstart.snap"
		if err := c.fw.SaveSnapshot(path, c.fw.NewDetector(refs)); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, det, err := LoadSnapshot(path)
				if err != nil {
					b.Fatal(err)
				}
				if det == nil {
					b.Fatal("no embedded detector")
				}
			}
			// The file's size is a fact about the format, not a rate:
			// as MB/s it would fall whenever the file shrank.
			b.ReportMetric(float64(st.Size()), "file-bytes")
		})
	}
}

// benchZoneLines builds a deterministic synthetic zone slice: mostly
// plain (non-IDN) lines, the rest decodable ACE labels that miss every
// reference — the steady-state composition of a TLD zone sweep. Lines
// draw their suffix from suffixes (round-robin over the rng), and with
// subdomains set, a fifth of them carry a www. prefix — the
// multi-label, multi-TLD shape the domain pipeline must ingest at the
// same cost as the single-TLD corpus. Every line is pre-verified to
// miss so the benchmark isolates the miss path.
func benchZoneLines(b *testing.B, det *core.Detector, n int, suffixes []string, subdomains bool) [][]byte {
	b.Helper()
	rng := stats.NewRNG(0x20e)
	cyr := []rune("бвгджзклмнптфцчшщыэюя") // no Latin twins in the DB
	lines := make([][]byte, 0, n)
	for len(lines) < n {
		var line string
		if rng.Intn(10) < 7 {
			bs := make([]byte, 5+rng.Intn(12))
			for i := range bs {
				bs[i] = byte('a' + rng.Intn(26))
			}
			line = string(bs)
		} else {
			rs := make([]rune, 4+rng.Intn(8))
			for i := range rs {
				rs[i] = cyr[rng.Intn(len(cyr))]
			}
			a, err := punycode.ToASCIILabel(string(rs))
			if err != nil {
				continue
			}
			line = a
		}
		if subdomains && rng.Intn(5) == 0 {
			line = "www." + line
		}
		line += suffixes[rng.Intn(len(suffixes))]
		buf := []byte(line)
		if fqdn, ok := NormalizeZoneLine(append([]byte(nil), buf...), BackendPostings); ok {
			if ms := det.DetectDomainBytesBackend(fqdn, core.BackendPostings); len(ms) != 0 {
				continue // exceedingly unlikely; keep the bench a pure miss path
			}
		}
		lines = append(lines, buf)
	}
	return lines
}

// hyphenZoneLines reshapes benchZoneLines' corpus: one ACE line in 40
// is kept (under 1% of the result), and of the plain lines 15% gain one
// '-' and 1% a "--" mid-label, past the third byte so that no "xn"
// label start becomes an ACE prefix. The hyphen shares are assumed, not
// measured from a real zone.
func hyphenZoneLines(base [][]byte) [][]byte {
	rng := stats.NewRNG(0x2d)
	out := make([][]byte, 0, len(base))
	for _, line := range base {
		if punycode.HasACEPrefix(line) {
			if rng.Intn(40) == 0 {
				out = append(out, line)
			}
			continue
		}
		dot := bytes.IndexByte(line, '.')
		var ins string
		switch r := rng.Intn(100); {
		case r < 1:
			ins = "--"
		case r < 16:
			ins = "-"
		}
		at := dot/2 + 1
		out = append(out, slices.Concat(line[:at], []byte(ins), line[at:]))
	}
	return out
}

// BenchmarkIngestion measures the detect feeder path — raw zone line to
// normalized FQDN to verdict, including label splitting and punycode
// decode for ACE labels — on the miss path. Every pooled variant must
// run at 0 allocs/op (CI gates the four rows' -benchmem column):
// "pooled" is the pure-.com corpus, "pooled-multitld" mixes .com, .net,
// a co.uk-style multi-label suffix, an IDN TLD and www. subdomains to
// prove TLD-awareness costs neither allocations nor more than a few
// ns/line. "pooled-acetld" puts every line under the ACE TLD
// .xn--p1ai, so every line holds "--" and passes the raw pre-check:
// its plain lines rest on the left-of-TLD check, which ignores the
// TLD's "--". "pooled-hyphens" has under 1% ACE lines and
// assumed hyphen shares (about 15% of names with one '-', a few with a
// non-ACE "a--b"; not measured from a real zone) and reports
// exact-share, the share of lines the pre-checks pass on to the exact
// byte loop: their speed rests on "--" being rare left of the TLD. The
// seed variant reproduces the Text/TrimSpace/ToLower/TrimSuffix
// per-line allocations the rewrite removed.
func BenchmarkIngestion(b *testing.B) {
	det, _ := benchDetector(b, homoglyph.SourceUC|homoglyph.SourceSimChar)
	lines := benchZoneLines(b, det, 4096, []string{".com"}, false)
	pooled := func(lines [][]byte) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, line := range lines {
					fqdn, ok := NormalizeZoneLine(line, BackendPostings)
					if !ok {
						continue
					}
					if ms := det.DetectDomainBytesBackend(fqdn, core.BackendPostings); len(ms) != 0 {
						b.Fatal("unexpected match")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(lines)), "ns/line")
		}
	}
	b.Run("pooled", pooled(lines))
	b.Run("pooled-multitld", pooled(benchZoneLines(b, det, 4096,
		[]string{".com", ".net", ".co.uk", ".xn--p1ai"}, true)))
	b.Run("pooled-acetld", pooled(benchZoneLines(b, det, 4096, []string{".xn--p1ai"}, false)))
	hyphens := hyphenZoneLines(lines)
	exact := 0
	for _, line := range hyphens {
		// The pre-check's pass rule: too short for a word load, a byte
		// >= 0x80, or "--". Its SWAR test also passes some lines holding
		// "-,", which this count would miss, so none may appear.
		if bytes.Contains(line, []byte("-,")) {
			b.Fatalf("line %q holds \"-,\"; exact-share would undercount", line)
		}
		if len(line) < 8 || bytes.Contains(line, []byte("--")) || !punycode.IsASCII(string(line)) {
			exact++
		}
	}
	b.Run("pooled-hyphens", func(b *testing.B) {
		pooled(hyphens)(b)
		b.ReportMetric(float64(exact)/float64(len(hyphens)), "exact-share")
	})
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, line := range lines {
				domain := strings.TrimSpace(string(line)) // Scanner.Text() copy
				if domain == "" || !IsIDN(domain) {
					continue
				}
				label := strings.TrimSuffix(strings.ToLower(domain), ".com")
				if ms := det.DetectDomainBackend(label, core.BackendPostings); len(ms) != 0 {
					b.Fatal("unexpected match")
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(lines)), "ns/line")
	})
}

// --- PR 4: serving-layer benches ---

// benchServer spins up the HTTP serving layer over a 10k-reference
// engine — the load-generator fixture for the serve benches.
func benchServer(b *testing.B, refs []string) (*httptest.Server, *core.Engine) {
	b.Helper()
	e := benchSetup(b)
	engine := core.NewEngine(core.NewDetector(e.DB(), refs))
	srv := service.New(service.Config{Engine: engine})
	ts := httptest.NewServer(srv)
	b.Cleanup(ts.Close)
	return ts, engine
}

// benchClient returns an HTTP client whose idle pool matches the
// bench's parallelism: DefaultTransport keeps only 2 idle conns per
// host, which would make a parallel load test measure TCP connection
// setup (and risk ephemeral-port exhaustion at long -benchtime)
// instead of the detect path.
func benchClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
}

// BenchmarkServeDetect is the serving-layer load generator: parallel
// clients hammer POST /v1/detect over real HTTP (connection reuse,
// JSON round-trip, the bounded-concurrency gate — the whole request
// path), alternating a homograph hit and a zone-shaped miss. Reported
// alongside ns/op: requests/sec, and the server's own p50/p99 service
// time read back from /metrics — the numbers CI publishes as
// BENCH_serve.json.
func BenchmarkServeDetect(b *testing.B) {
	e := benchSetup(b)
	ts, _ := benchServer(b, e.Refs().SLDs(10000))
	bodies := [][]byte{
		[]byte(`{"fqdn":"xn--ggle-55da.com"}`),
		[]byte(`{"fqdn":"plainzonename.com"}`),
		[]byte(`{"fqdns":["xn--ggle-55da.net","miss.example.net","xn--fcebook-2fg.com"]}`),
	}
	var failed atomic.Uint64
	client := benchClient()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/detect", "application/json",
				bytes.NewReader(bodies[i%len(bodies)]))
			i++
			if err != nil {
				failed.Add(1)
				continue
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				failed.Add(1)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				failed.Add(1)
			}
		}
	})
	b.StopTimer()
	if n := failed.Load(); n != 0 {
		b.Fatalf("%d requests failed", n)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	var st service.Stats
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	b.ReportMetric(float64(st.P50Ns), "p50_ns")
	b.ReportMetric(float64(st.P99Ns), "p99_ns")
}

// BenchmarkServeReload is the zero-downtime acceptance bench: each
// iteration hot-swaps the serving state from a compiled snapshot file
// over POST /v1/reload (alternating two artifacts with disjoint
// reference sets) while background clients query continuously over
// HTTP. Every response must be error-free and exactly consistent with
// the epoch it reports — odd epochs hold the google set (probe
// matches), even the paypal set (probe misses) — and reported epochs
// may never precede one the checker already observed, so an answer
// can never be more than one swap stale. Run with -benchtime 100x or
// more (CI does) to prove ≥100 consecutive swaps under load;
// query_errors and epoch_violations are reported and must be zero.
func BenchmarkServeReload(b *testing.B) {
	e := benchSetup(b)
	dir := b.TempDir()
	snapA, snapB := dir+"/a.snap", dir+"/b.snap"
	if err := snapshot.WriteFile(snapA, e.DB(), core.NewDetector(e.DB(), []string{"google"})); err != nil {
		b.Fatal(err)
	}
	if err := snapshot.WriteFile(snapB, e.DB(), core.NewDetector(e.DB(), []string{"paypal"})); err != nil {
		b.Fatal(err)
	}
	ts, engine := benchServer(b, []string{"google"}) // epoch 1 = google = odd

	var stop atomic.Bool
	var queries, errors, violations atomic.Uint64
	var wg sync.WaitGroup
	client := benchClient()
	probe := []byte(`{"fqdn":"xn--ggle-55da.com"}`)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch uint64
			for !stop.Load() {
				resp, err := client.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(probe))
				if err != nil {
					errors.Add(1)
					continue
				}
				var out struct {
					Epoch   uint64            `json:"epoch"`
					Matches []json.RawMessage `json:"matches"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if decErr != nil || resp.StatusCode != http.StatusOK {
					errors.Add(1)
					continue
				}
				queries.Add(1)
				if (out.Epoch%2 == 1) != (len(out.Matches) == 1) {
					violations.Add(1) // answer from a different epoch than reported
				}
				if out.Epoch < lastEpoch {
					violations.Add(1) // served state older than one already seen
				}
				lastEpoch = out.Epoch
			}
		}()
	}

	reload := func(path string) {
		body := fmt.Sprintf(`{"snapshot":%q}`, path)
		resp, err := client.Post(ts.URL+"/v1/reload", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("reload: status %d", resp.StatusCode)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if engine.Epoch()%2 == 1 {
			reload(snapB)
		} else {
			reload(snapA)
		}
	}
	b.StopTimer()
	// The acceptance bar is ≥100 consecutive swaps; top up untimed if
	// the bench harness chose a smaller N.
	for extra := b.N; extra < 100; extra++ {
		if engine.Epoch()%2 == 1 {
			reload(snapB)
		} else {
			reload(snapA)
		}
	}
	stop.Store(true)
	wg.Wait()
	b.ReportMetric(float64(engine.Epoch()-1), "swaps")
	b.ReportMetric(float64(queries.Load()), "queries")
	b.ReportMetric(float64(errors.Load()), "query_errors")
	b.ReportMetric(float64(violations.Load()), "epoch_violations")
	if errors.Load() != 0 || violations.Load() != 0 {
		b.Fatalf("%d query errors, %d epoch violations across %d swaps",
			errors.Load(), violations.Load(), engine.Epoch()-1)
	}
	if queries.Load() == 0 {
		b.Fatal("no queries completed during the swap storm")
	}
}

// BenchmarkExtractIDNs measures the Step-2 filter on a zone-shaped
// corpus (~10% IDNs): the seed append-grow loop, the two-pass
// exact-size ExtractIDNs, and the aliasing ExtractIDNsBytes, which
// must allocate exactly once (the result slice) per call.
func BenchmarkExtractIDNs(b *testing.B) {
	rng := stats.NewRNG(0x51d)
	strs := make([]string, 0, 8192)
	byteLines := make([][]byte, 0, 8192)
	for i := 0; i < 8192; i++ {
		var line string
		if rng.Intn(10) == 0 {
			line = fmt.Sprintf("xn--idn%d-abc.com", i)
		} else {
			line = fmt.Sprintf("plainzonename%d.com", i)
		}
		strs = append(strs, line)
		byteLines = append(byteLines, []byte(line))
	}
	b.Run("seed-append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out []string
			for _, d := range strs {
				if IsIDN(d) {
					out = append(out, d)
				}
			}
			if len(out) == 0 {
				b.Fatal("no IDNs")
			}
		}
	})
	b.Run("prealloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ExtractIDNs(strs)) == 0 {
				b.Fatal("no IDNs")
			}
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(ExtractIDNsBytes(byteLines)) == 0 {
				b.Fatal("no IDNs")
			}
		}
	})
}

// BenchmarkSnapshotCodec isolates Marshal/Unmarshal throughput for the
// full artifact (database + 10k-reference detector).
func BenchmarkSnapshotCodec(b *testing.B) {
	e := benchSetup(b)
	det := core.NewDetector(e.DB(), e.Refs().SLDs(10000))
	data := snapshot.Marshal(e.DB(), det)
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			snapshot.Marshal(e.DB(), det)
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, _, err := snapshot.Unmarshal(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTriagePipeline measures the streaming measurement pipeline
// (detect → DNS probe → web classify → blacklist) end to end against
// the in-process simulated infrastructure: per iteration, every
// detected homograph of the shared registry flows through the full
// triage chain. domains/s is the pipeline's survey throughput —
// probes, fetches and feed lookups included — and records/iter pins
// the population size the number was measured over.
func BenchmarkTriagePipeline(b *testing.B) {
	e := benchSetup(b)
	reg, err := e.Registry()
	if err != nil {
		b.Fatal(err)
	}
	det := core.NewDetector(e.DB(), e.Refs().SLDs(10000))
	inputs := triage.InputsFromMatches(det.Detect(reg.IDNs()))
	if len(inputs) == 0 {
		b.Fatal("no homographs detected")
	}

	store := dnsserver.NewStore()
	store.AddZone(reg.BuildProbeZone(0))
	dns := dnsserver.NewServer(store)
	if err := dns.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer dns.Close()
	mapper, err := hostsim.NewMapper()
	if err != nil {
		b.Fatal(err)
	}
	web := websim.NewServer()
	if err := web.Start(); err != nil {
		b.Fatal(err)
	}
	defer web.Close()
	websim.Deploy(reg, web, mapper)
	feeds, err := e.Blacklists()
	if err != nil {
		b.Fatal(err)
	}

	newPipeline := func() *triage.Pipeline {
		p, err := triage.New(triage.Config{
			DNS: dnsclient.New(dns.Addr()),
			Classifier: &webclassify.Classifier{
				Resolve:     mapper.Resolve,
				UserAgent:   "BenchCrawler/1.0",
				IsMalicious: feeds.AnyContains,
			},
			Blacklists: feeds,
			DNSWorkers: 32,
			WebWorkers: 32,
			ParkingNS:  registry.ParkingProviders,
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}

	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		records, err := newPipeline().Run(context.Background(), inputs)
		if err != nil {
			b.Fatal(err)
		}
		if len(records) != len(inputs) {
			b.Fatalf("%d records for %d inputs", len(records), len(inputs))
		}
		total += len(records)
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "domains/s")
	b.ReportMetric(float64(len(inputs)), "records/iter")
}
