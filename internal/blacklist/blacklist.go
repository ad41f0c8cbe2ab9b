// Package blacklist models the three threat feeds the paper checks its
// detected homographs against in Table 14: hpHosts (a large
// community-maintained host file), Google Safe Browsing and Symantec
// DeepSight (smaller, high-confidence commercial feeds). Feeds are
// populated from the registry's ground truth plus realistic filler
// entries (unrelated malicious domains, including Cyrillic-TLD ones the
// paper mentions), so matching behaves like querying the real lists:
// most entries are not homographs, and the commercial feeds are far
// smaller than the community one.
package blacklist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/punycode"
	"repro/internal/registry"
	"repro/internal/stats"
)

// Feed is one blacklist: a named set of domains.
type Feed struct {
	Name string

	mu      sync.RWMutex
	entries map[string]bool
}

// NewFeed returns an empty feed.
func NewFeed(name string) *Feed {
	return &Feed{Name: name, entries: make(map[string]bool)}
}

// Add inserts a domain.
func (f *Feed) Add(domain string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[normalize(domain)] = true
}

// Contains reports whether domain is listed.
func (f *Feed) Contains(domain string) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.entries[normalize(domain)]
}

// Len reports the feed size.
func (f *Feed) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.entries)
}

// Match returns the subset of domains present in the feed, preserving
// order.
func (f *Feed) Match(domains []string) []string {
	var out []string
	for _, d := range domains {
		if f.Contains(d) {
			out = append(out, d)
		}
	}
	return out
}

// normalize reduces a feed entry (or a queried domain) to the one
// canonical form both sides of a lookup meet on: the lowercased ACE
// FQDN, trailing root dot dropped. Routing through punycode.ToASCII
// means a Unicode-form entry ("gооgle.com") and a mixed-case ACE entry
// ("XN--GGLE-55DA.COM") both land on "xn--ggle-55da.com" — the exact
// shape the detection pipeline emits — instead of silently never
// matching. Entries that fail IDNA conversion (overlong labels, stray
// encodings real feeds do carry) fall back to the unified case fold so
// they still match byte-identical queries.
func normalize(domain string) string {
	d := strings.TrimSuffix(strings.TrimSpace(domain), ".")
	if d == "" {
		return ""
	}
	if ace, err := punycode.ToASCII(d); err == nil {
		return ace
	}
	return punycode.FoldString(d)
}

// Write emits the feed as a hosts-file-style list, sorted.
func (f *Feed) Write(w io.Writer) error {
	f.mu.RLock()
	domains := make([]string, 0, len(f.entries))
	for d := range f.entries {
		domains = append(domains, d)
	}
	f.mu.RUnlock()
	sort.Strings(domains)
	bw := bufio.NewWriter(w)
	for _, d := range domains {
		if _, err := fmt.Fprintf(bw, "127.0.0.1 %s\n", d); err != nil {
			return fmt.Errorf("blacklist: %w", err)
		}
	}
	return bw.Flush()
}

// Parse reads a hosts-file-style list ("127.0.0.1 domain" or bare
// domains, # comments).
func Parse(name string, r io.Reader) (*Feed, error) {
	f := NewFeed(name)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		domain := fields[len(fields)-1]
		f.Add(domain)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("blacklist: %w", err)
	}
	return f, nil
}

// Set bundles the three feeds of Table 14.
type Set struct {
	HpHosts  *Feed
	GSB      *Feed
	Symantec *Feed
}

// Feeds lists the set in the paper's column order.
func (s *Set) Feeds() []*Feed {
	return []*Feed{s.HpHosts, s.GSB, s.Symantec}
}

// AnyContains reports whether any feed lists domain. A nil feed lists
// nothing, as in the triage blacklist stage, so a set that fills in
// only some feeds can back a web classifier's IsMalicious.
func (s *Set) AnyContains(domain string) bool {
	for _, f := range s.Feeds() {
		if f != nil && f.Contains(domain) {
			return true
		}
	}
	return false
}

// FillerCounts sizes the unrelated (non-homograph) population of each
// feed. The hpHosts community feed dwarfs the commercial ones, and
// includes the 1,054 Cyrillic 'рф' ccTLD entries the paper calls out
// in Section 7.1.
type FillerCounts struct {
	HpHosts   int
	GSB       int
	Symantec  int
	RFDomains int // entries under the Cyrillic рф TLD, all in hpHosts
}

// DefaultFiller mirrors the relative feed sizes the paper describes.
func DefaultFiller() FillerCounts {
	return FillerCounts{HpHosts: 50000, GSB: 4000, Symantec: 1500, RFDomains: 1054}
}

// FromRegistry builds the three feeds from ground truth: homographs
// carry their per-feed flags, malicious redirect targets are listed in
// hpHosts (the paper found those via VirusTotal), and filler entries
// pad each feed to realistic size.
func FromRegistry(reg *registry.Registry, filler FillerCounts, seed uint64) *Set {
	s := &Set{
		HpHosts:  NewFeed("hpHosts"),
		GSB:      NewFeed("GSB"),
		Symantec: NewFeed("Symantec"),
	}
	for i := range reg.Homographs {
		h := &reg.Homographs[i]
		if h.Blacklist.Has(registry.BLHpHosts) {
			s.HpHosts.Add(h.ASCII)
		}
		if h.Blacklist.Has(registry.BLGSB) {
			s.GSB.Add(h.ASCII)
		}
		if h.Blacklist.Has(registry.BLSymantec) {
			s.Symantec.Add(h.ASCII)
		}
		if h.Redirect == registry.RedirMalicious && h.RedirectTarget != "" {
			s.HpHosts.Add(h.RedirectTarget)
		}
	}
	rng := stats.NewRNG(seed ^ 0xb1ac)
	fill := func(f *Feed, n int, tld string) {
		for f.Len() < n {
			var sb strings.Builder
			l := 6 + rng.Intn(10)
			for i := 0; i < l; i++ {
				sb.WriteByte(byte('a' + rng.Intn(26)))
			}
			sb.WriteString(tld)
			f.Add(sb.String())
		}
	}
	fill(s.HpHosts, filler.HpHosts-filler.RFDomains, ".badexample")
	fill(s.HpHosts, filler.HpHosts, ".xn--p1ai") // рф in ACE form
	fill(s.GSB, filler.GSB, ".badexample")
	fill(s.Symantec, filler.Symantec, ".badexample")
	return s
}

// TableRow is one row of Table 14: per-feed homograph match counts
// split by the homoglyph database that detected the homograph.
type TableRow struct {
	Feed    string
	UC      int // homographs detectable via UC
	SimChar int // homographs detectable via SimChar
	Union   int
}

// TableFourteen matches the given homograph sets (the detector's
// per-database outputs) against all feeds.
func TableFourteen(s *Set, detectedUC, detectedSim, detectedUnion []string) []TableRow {
	rows := make([]TableRow, 0, 3)
	for _, f := range s.Feeds() {
		rows = append(rows, TableRow{
			Feed:    f.Name,
			UC:      len(f.Match(detectedUC)),
			SimChar: len(f.Match(detectedSim)),
			Union:   len(f.Match(detectedUnion)),
		})
	}
	return rows
}
