// Package shamfinder is the public facade of the ShamFinder
// reproduction: an automated framework for detecting IDN homographs
// (Suzuki et al., ACM IMC 2019).
//
// The framework has two halves. The first builds the homoglyph
// database: SimChar, computed automatically from a bitmap font by
// pairwise glyph comparison, united with UC, the Unicode consortium's
// hand-maintained confusables list restricted to IDNA-permitted code
// points. The second half is the detector (the paper's Algorithm 1):
// given reference domain names and a set of registered IDNs, it finds
// the IDNs that are character-for-character confusable with a
// reference, pinpointing each substituted character so a countermeasure
// can explain exactly what was swapped (the paper's Figure 12 warning).
//
// Quickstart:
//
//	sf, err := shamfinder.New(shamfinder.Config{})
//	if err != nil { ... }
//	det := sf.NewDetector([]string{"google", "facebook"})
//	matches := det.DetectDomainBackend("xn--ggle-55da.net", shamfinder.BackendPostings) // gооgle, any TLD
//	for _, m := range matches {
//	    fmt.Println(sf.Warn(m).Text()) // "did you mean google.net?"
//	}
package shamfinder

import (
	"fmt"
	"io"
	"os"

	"repro/internal/confusables"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/fontgen"
	"repro/internal/hexfont"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/reflist"
	"repro/internal/simchar"
	"repro/internal/snapshot"
	"repro/internal/triage"
	"repro/internal/ucd"
)

// Source selects which homoglyph databases the detector consults.
type Source = homoglyph.Source

// Database sources; the default (SourceBoth) is the paper's UC ∪
// SimChar configuration.
const (
	SourceUC      = homoglyph.SourceUC
	SourceSimChar = homoglyph.SourceSimChar
	SourceBoth    = homoglyph.SourceUC | homoglyph.SourceSimChar
)

// Match is one detected IDN homograph.
type Match = core.Match

// CharDiff pinpoints one substituted character within a match.
type CharDiff = core.CharDiff

// Backend selects a detection backend: Algorithm 1's pairwise-verified
// same-length matches (postings), every reference sharing the label's
// TR39 whole-label skeleton, or both.
type Backend = core.Backend

// Detection backends. The posting backend pinpoints per-character
// substitutions but only sees same-length homographs; the skeleton
// backend catches many-to-one confusions ("rn"→"m", "vv"→"w") by
// whole-label prototype equality; BackendBoth unions them, tagging
// each match with the backend(s) that found it.
const (
	BackendPostings = core.BackendPostings
	BackendSkeleton = core.BackendSkeleton
	BackendBoth     = core.BackendBoth
)

// ParseBackend parses a backend name: "postings", "skeleton", "both".
// The empty string means BackendPostings.
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// Warning is the user-facing countermeasure context of Section 7.2.
type Warning = core.Warning

// Config controls database construction.
type Config struct {
	// FontPath loads a GNU Unifont .hex file from disk. Empty means
	// the built-in synthetic font (see DESIGN.md §1 for why a
	// synthetic font preserves the pipeline's behaviour offline).
	FontPath string
	// FontScope limits the synthetic font's coverage. FontFull (the
	// default) covers every generated block; FontFast skips the CJK
	// and Hangul bulk for quick starts and tests.
	FontScope FontScope
	// Threshold is the SimChar pixel-distance cutoff Δ. Zero means
	// the paper's validated θ=4.
	Threshold int
	// MinPixels is the sparse-glyph elimination floor of SimChar
	// Step III. Zero means the paper's 10.
	MinPixels int
	// Sources picks the databases to consult. Zero means SourceBoth.
	Sources Source
	// ExtraStyles builds additional synthetic fonts with these style
	// seeds and merges their SimChar databases into the primary one —
	// the paper's Section 7.1 multi-font extension. Ignored when
	// FontPath is set.
	ExtraStyles []uint64
}

// FontScope selects synthetic-font coverage.
type FontScope int

// Font scopes.
const (
	FontFull FontScope = iota // every synthetic block (≈42k glyphs)
	FontFast                  // skip CJK and Hangul (fast tests)
)

// Framework bundles the built databases, the font they came from, and
// the build timings.
type Framework struct {
	db      *homoglyph.DB
	font    *hexfont.Font
	timings simchar.Timings
}

// New builds the framework per cfg. Building the full synthetic font
// and scanning it takes a few seconds; reuse the result.
func New(cfg Config) (*Framework, error) {
	var font *hexfont.Font
	switch {
	case cfg.FontPath != "":
		f, err := os.Open(cfg.FontPath)
		if err != nil {
			return nil, fmt.Errorf("shamfinder: opening font: %w", err)
		}
		defer f.Close()
		font, err = hexfont.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("shamfinder: parsing font: %w", err)
		}
	case cfg.FontScope == FontFast:
		font = fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	default:
		font = fontgen.Full()
	}
	return NewFromFont(font, cfg)
}

// NewFromFont builds the framework over an already-loaded font.
func NewFromFont(font *hexfont.Font, cfg Config) (*Framework, error) {
	opt := simchar.Options{Threshold: cfg.Threshold, MinPixels: cfg.MinPixels}
	idna := ucd.IDNASet()
	sim, timings := simchar.Build(font, idna, opt)
	if cfg.FontPath == "" && len(cfg.ExtraStyles) > 0 {
		dbs := []*simchar.DB{sim}
		for _, style := range cfg.ExtraStyles {
			styled := fontgen.Generate(fontgen.Options{
				SkipCJK:    cfg.FontScope == FontFast,
				SkipHangul: cfg.FontScope == FontFast,
				StyleSeed:  style,
			})
			db, _ := simchar.Build(styled, idna, opt)
			dbs = append(dbs, db)
		}
		sim = simchar.Merge(dbs...)
	}
	uc := confusables.Default()
	sources := cfg.Sources
	if sources == 0 {
		sources = SourceBoth
	}
	return &Framework{
		db:      homoglyph.New(uc, sim, sources),
		font:    font,
		timings: timings,
	}, nil
}

// SaveSnapshot writes the framework's fully compiled artifacts — and,
// when det is non-nil, that detector's reference list and per-rune
// skeleton rows — to path as a versioned, checksummed binary snapshot.
// Loading one skips the font rasterization, the Section 3.3 Δ scan and
// the detector's union-find and expansion, collapsing seconds of cold
// start into milliseconds; the load compiles the reference index from
// the stored list, as NewDetector does. See LoadSnapshot. The glyph
// source itself is not serialized (snapshots carry compiled results,
// not inputs), so a loaded framework's Font() is nil.
func (f *Framework) SaveSnapshot(path string, det *Detector) error {
	return snapshot.WriteFile(path, f.db, detInner(det))
}

func detInner(det *Detector) *core.Detector {
	if det == nil {
		return nil
	}
	return det.inner
}

// LoadSnapshot reconstructs a framework (and the embedded detector, nil
// if none was compiled in) from the snapshot file at path — the
// one-file cold start for workers, serverless handlers, and short-lived
// CLI runs. Detection results are byte-for-byte identical to the
// freshly built framework the snapshot was taken from.
func LoadSnapshot(path string) (*Framework, *Detector, error) {
	db, det, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	fw := &Framework{db: db}
	if det == nil {
		return fw, nil, nil
	}
	return fw, &Detector{inner: det}, nil
}

// Resolve returns the framework and detector named by a snapshot path
// and a reference list path, under the rule every surface shares
// (internal/reflist.Resolve): the list wins over the snapshot's
// embedded detector, and a list that reduces to no labels is an error.
// build supplies the framework when snapshotPath is empty and is
// called only then, after the list has loaded. With need unset no
// detector is compiled and the returned one is nil.
func Resolve(snapshotPath, refsPath string, build func() (*Framework, error), need bool) (*Framework, *Detector, error) {
	var fw *Framework
	res, err := reflist.Resolve(snapshotPath, refsPath, nil, func() (*homoglyph.DB, error) {
		var err error
		if fw, err = build(); err != nil {
			return nil, err
		}
		return fw.db, nil
	}, need)
	if err != nil {
		return nil, nil, err
	}
	if fw == nil {
		fw = &Framework{db: res.DB}
	}
	var det *Detector
	if res.Detector != nil {
		det = &Detector{inner: res.Detector}
	}
	return fw, det, nil
}

// NormalizeZoneLine prepares one line of a domain list or zone file
// for detection under backend be, in place and without allocating:
// ASCII whitespace is trimmed, one trailing root dot is dropped, and
// ASCII letters are lowercased. The whole FQDN is kept — any TLD, any
// label count — for the domain-aware detectors to split; a master-file
// record ("name TTL IN NS ...") keeps its owner name.
//
// Under the posting backend it reports false for blank lines and lines
// with no scannable homograph candidate: a candidate is an ACE label
// left of the final dot, a bare ACE label, or any non-ASCII byte. A
// line with no "--" and no non-ASCII byte rejects before it is
// trimmed, after three overlapping 8-byte loads for a typical zone
// line. A backend with the skeleton index keeps every non-blank line,
// since its many-to-one targets ("rnicrosoft.com") are pure ASCII. The
// returned domain aliases line's storage.
//
// The CLI, the HTTP serving layer and the zone watcher all normalize
// through it, so `serve`, `detect` and `watch-zone` can never disagree
// on folding, the root dot or the gate.
func NormalizeZoneLine(line []byte, be Backend) ([]byte, bool) {
	return core.NormalizeZoneLine(line, be)
}

// DB exposes the underlying homoglyph database for advanced callers
// (the measurement pipeline in cmd/experiments).
func (f *Framework) DB() *homoglyph.DB { return f.db }

// Font exposes the glyph source.
func (f *Framework) Font() *hexfont.Font { return f.font }

// BuildTimings reports how long each SimChar construction stage took
// (the paper's Table 5).
func (f *Framework) BuildTimings() simchar.Timings { return f.timings }

// NewDetector builds an Algorithm 1 detector over reference labels
// (registrable labels with the public suffix removed, e.g. "google" —
// see Registrable for the co.uk-aware split).
func (f *Framework) NewDetector(references []string) *Detector {
	return &Detector{inner: core.NewDetector(f.db, references)}
}

// Confusable reports whether two characters are homoglyphs under the
// configured sources, and which database vouches for the pair.
func (f *Framework) Confusable(a, b rune) (bool, Source) {
	return f.db.Confusable(a, b)
}

// Homoglyphs lists the configured databases' homoglyphs of r.
func (f *Framework) Homoglyphs(r rune) []rune { return f.db.Homoglyphs(r) }

// Revert maps an IDN label back to the plausible original by replacing
// every homoglyph with its canonical (usually Basic Latin) character —
// Section 6.4's tracing of targeted originals.
func (f *Framework) Revert(label string) string { return f.db.Revert(label) }

// RevertDomain maps a homograph FQDN (ACE or Unicode form) to the
// domain it plausibly imitates: the registrable label is decoded,
// reverted through Revert, and the public suffix reattached —
// "www.xn--ggle-55da.co.uk" → "google.co.uk". Reports false when the
// registrable label does not decode. The survey pipeline's
// brand-redirect classification reverts the same way.
func (f *Framework) RevertDomain(fqdn string) (string, bool) { return triage.RevertDomain(f.db, fqdn) }

// Warn builds the Figure 12 warning context for a detected match.
func (f *Framework) Warn(m Match) Warning { return core.BuildWarning(m) }

// Detector wraps the core detection engine.
type Detector struct {
	inner *core.Detector
}

// Detect scans a batch of domains (full FQDNs on any TLD, or bare IDN
// labels) under the posting backend across GOMAXPROCS workers,
// returning matches sorted by (FQDN, IDN, reference).
func (d *Detector) Detect(domains []string) []Match {
	return d.inner.Detect(domains)
}

// DetectDomainBackend checks one name under backend be — a dotted FQDN
// on any TLD ("xn--ggle-55da.net", "www.xn--ggle-55da.com",
// "xn--80ak6aa92e.xn--p1ai", "gооgle.co.uk") or a bare label — scanning
// every candidate label against the references. Matches carry the FQDN
// and its public suffix; see Match.Imitated for the "google.net"-style
// rendering. The skeleton backend also scans pure-ASCII labels. Safe
// for concurrent use.
func (d *Detector) DetectDomainBackend(fqdn string, be Backend) []Match {
	return d.inner.DetectDomainBackend(fqdn, be)
}

// DetectDomainBytesBackend is DetectDomainBackend over a reused line
// buffer, zero-allocation when the name matches nothing, under every
// backend — the per-name primitive under NormalizeZoneLine(line, be).
func (d *Detector) DetectDomainBytesBackend(fqdn []byte, be Backend) []Match {
	return d.inner.DetectDomainBytesBackend(fqdn, be)
}

// DetectLines scans a domain list or zone file under backend be across
// workers (≤ 0 means GOMAXPROCS) — the zone-scale entry point. Each
// line passes through NormalizeZoneLine(line, be); one goroutine reads
// while the workers detect, and a call's allocations on the miss path
// do not grow with its line count. It returns the matches sorted by
// (FQDN, IDN, reference) for any worker count, and how many lines
// NormalizeZoneLine kept.
func (d *Detector) DetectLines(r io.Reader, workers int, be Backend) ([]Match, int, error) {
	return d.inner.DetectLines(r, workers, be)
}

// Revert maps a homograph label to its most plausible original.
func (d *Detector) Revert(idnLabel string) (string, error) {
	return d.inner.Revert(idnLabel)
}

// References returns the deduplicated reference labels in first-seen
// order.
func (d *Detector) References() []string { return d.inner.References() }

// ToASCII converts a Unicode domain to its IDNA ACE form.
func ToASCII(domain string) (string, error) { return punycode.ToASCII(domain) }

// ToUnicode converts an ACE domain to its Unicode form.
func ToUnicode(domain string) (string, error) { return punycode.ToUnicode(domain) }

// IsIDN reports whether any label of the domain carries the "xn--" ACE
// prefix.
func IsIDN(name string) bool { return punycode.IsIDN(name) }

// Registrable splits a domain name into its registrable label — the
// unit references index on — and its public suffix: ("amazon", "co.uk")
// for "amazon.co.uk", ("google", "com") for "www.google.com". A bare
// label returns (label, "").
func Registrable(name string) (label, suffix string) {
	return domain.Registrable(name)
}

// ExtractIDNs filters a domain list to the IDNs — the paper's Step 2.
// Two passes, one exact-size allocation: a zone-scale list is ~0.7%
// IDNs, so growing the output by append would allocate (and copy)
// log₂(hits) times for nothing, while sizing it to len(domains) would
// waste two orders of magnitude of memory. The IsIDN test itself is
// allocation-free, so the count pass costs only the scan.
func ExtractIDNs(domains []string) []string {
	n := 0
	for _, d := range domains {
		if IsIDN(d) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, d := range domains {
		if IsIDN(d) {
			out = append(out, d)
		}
	}
	return out
}

// ExtractIDNsBytes is ExtractIDNs for feeders that hold zone lines as
// byte slices: the output aliases the input's backing arrays (nothing
// is copied), so the only allocation is the exact-size result slice —
// per-hit allocation on zone-scale input drops to zero.
func ExtractIDNsBytes(domains [][]byte) [][]byte {
	n := 0
	for _, d := range domains {
		if punycode.IsIDNBytes(d) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([][]byte, 0, n)
	for _, d := range domains {
		if punycode.IsIDNBytes(d) {
			out = append(out, d)
		}
	}
	return out
}

// WriteSimChar serialises the built SimChar database.
func (f *Framework) WriteSimChar(w io.Writer) error {
	return f.db.SimChar().Write(w)
}
