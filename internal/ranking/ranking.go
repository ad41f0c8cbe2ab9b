// Package ranking models Alexa-style top-site lists: ranked domain
// names with CSV serialisation in the "rank,domain" format Alexa
// distributed, plus a deterministic generator that fills the list with
// plausible brandable names around a set of pinned real-world anchors
// (google at the top, myetherwallet and allstate in the mid ranks the
// paper calls out in Table 9).
package ranking

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/domain"
	"repro/internal/stats"
)

// Entry is one row of a top-sites list.
type Entry struct {
	Rank   int
	Domain string // registrable domain without trailing dot, e.g. "google.com"
}

// List is a ranked list of domains, rank 1 first.
type List struct {
	Entries []Entry
	index   map[string]int // domain -> rank
}

// NewList builds a list from already-ordered domains.
func NewList(domains []string) *List {
	l := &List{index: make(map[string]int, len(domains))}
	for i, d := range domains {
		e := Entry{Rank: i + 1, Domain: strings.ToLower(d)}
		l.Entries = append(l.Entries, e)
		l.index[e.Domain] = e.Rank
	}
	return l
}

// Rank returns the rank of domain, or 0 if absent.
func (l *List) Rank(domain string) int {
	return l.index[strings.ToLower(domain)]
}

// Contains reports whether domain appears anywhere in the list.
func (l *List) Contains(domain string) bool { return l.Rank(domain) > 0 }

// Top returns the first n domains (or all if n exceeds the size).
func (l *List) Top(n int) []string {
	if n > len(l.Entries) {
		n = len(l.Entries)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = l.Entries[i].Domain
	}
	return out
}

// Len reports the list size.
func (l *List) Len() int { return len(l.Entries) }

// SLDs returns the registrable labels of the top-ranked domains — the
// reference labels Algorithm 1 matches against (public suffix removed,
// co.uk-style multi-label suffixes handled) — until n distinct labels
// are collected or the list is exhausted. Every TLD contributes: the
// seed's ".com"-only filter silently dropped amazon.co.uk-style
// references. Duplicate labels (google.com and google.net) keep their
// best-ranked occurrence.
func (l *List) SLDs(n int) []string {
	var out []string
	seen := make(map[string]bool, n)
	for _, e := range l.Entries {
		if len(out) == n {
			break
		}
		label, _ := domain.Registrable(e.Domain)
		if label == "" || seen[label] {
			continue
		}
		seen[label] = true
		out = append(out, label)
	}
	return out
}

// WriteCSV emits the Alexa "rank,domain" CSV form.
func (l *List) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range l.Entries {
		if _, err := fmt.Fprintf(bw, "%d,%s\n", e.Rank, e.Domain); err != nil {
			return fmt.Errorf("ranking: %w", err)
		}
	}
	return bw.Flush()
}

// ParseCSV reads a "rank,domain" CSV. Rows must be rank-ordered;
// blank lines and #-comments are skipped.
func ParseCSV(r io.Reader) (*List, error) {
	sc := bufio.NewScanner(r)
	var domains []string
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		rank, domain, ok := strings.Cut(text, ",")
		if !ok {
			return nil, fmt.Errorf("ranking: line %d: missing comma", line)
		}
		n, err := strconv.Atoi(rank)
		if err != nil {
			return nil, fmt.Errorf("ranking: line %d: bad rank %q", line, rank)
		}
		if n != len(domains)+1 {
			return nil, fmt.Errorf("ranking: line %d: rank %d out of order", line, n)
		}
		domains = append(domains, domain)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ranking: %w", err)
	}
	return NewList(domains), nil
}

// Anchor pins a real domain at a fixed rank in the generated list.
type Anchor struct {
	Rank   int
	Domain string
}

// PaperAnchors are the domains the paper's Table 9 and Section 6
// discuss, at ranks consistent with its narrative: google, amazon and
// facebook in the top 10; myetherwallet at 7,400 and allstate at 5,148
// among .com domains in the Alexa ranking.
func PaperAnchors() []Anchor {
	return []Anchor{
		{1, "google.com"},
		{3, "youtube.com"},
		{4, "facebook.com"},
		{6, "amazon.com"},
		{9, "wikipedia.com"},
		{12, "yahoo.com"},
		{15, "gmail.com"},
		{80, "binance.com"},
		{120, "twitter.com"},
		{200, "netflix.com"},
		{812, "doviz.com"},
		{957, "expansion.com"},
		{1366, "shadbase.com"},
		{1504, "peru.com"},
		{5148, "allstate.com"},
		{7400, "myetherwallet.com"},
	}
}

// Generate builds a deterministic list of size n with the anchors
// pinned and the remaining ranks filled with synthetic brandable .com
// names. The same seed always yields the same list.
func Generate(n int, seed uint64, anchors []Anchor) *List {
	rng := stats.NewRNG(seed)
	byRank := make(map[int]string, len(anchors))
	maxAnchor := 0
	for _, a := range anchors {
		byRank[a.Rank] = strings.ToLower(a.Domain)
		if a.Rank > maxAnchor {
			maxAnchor = a.Rank
		}
	}
	if n < maxAnchor {
		n = maxAnchor
	}
	used := make(map[string]bool, n)
	for _, d := range byRank {
		used[d] = true
	}
	domains := make([]string, 0, n)
	for rank := 1; rank <= n; rank++ {
		if d, ok := byRank[rank]; ok {
			domains = append(domains, d)
			continue
		}
		for {
			d := syntheticBrand(rng) + ".com"
			if !used[d] {
				used[d] = true
				domains = append(domains, d)
				break
			}
		}
	}
	return NewList(domains)
}

// syllables for brand synthesis; chosen so generated names look like
// startup brands ("zentiva", "quboro") rather than random strings.
var (
	onsets  = []string{"b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "q", "r", "s", "t", "v", "z", "br", "cl", "st", "tr"}
	vowels  = []string{"a", "e", "i", "o", "u", "ia", "io"}
	codas   = []string{"", "", "n", "r", "s", "x", "m"}
	suffixe = []string{"", "", "ly", "ify", "hub", "base", "lab", "io"}
)

func syntheticBrand(rng *stats.RNG) string {
	var sb strings.Builder
	syllableCount := 2 + rng.Intn(2)
	for i := 0; i < syllableCount; i++ {
		sb.WriteString(onsets[rng.Intn(len(onsets))])
		sb.WriteString(vowels[rng.Intn(len(vowels))])
		if i == syllableCount-1 {
			sb.WriteString(codas[rng.Intn(len(codas))])
		}
	}
	sb.WriteString(suffixe[rng.Intn(len(suffixe))])
	return sb.String()
}

// MergeUnique concatenates lists, keeping the first occurrence of each
// domain — how the paper combines Alexa with Majestic Million.
func MergeUnique(lists ...*List) *List {
	var domains []string
	seen := make(map[string]bool)
	for _, l := range lists {
		for _, e := range l.Entries {
			if !seen[e.Domain] {
				seen[e.Domain] = true
				domains = append(domains, e.Domain)
			}
		}
	}
	return NewList(domains)
}

// SortedByName returns the domains in lexicographic order (useful for
// deterministic golden tests).
func (l *List) SortedByName() []string {
	out := l.Top(l.Len())
	sort.Strings(out)
	return out
}
