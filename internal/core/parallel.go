package core

import (
	"cmp"
	"encoding/binary"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/punycode"
)

// compareMatch orders matches by FQDN, then matched label, then
// reference — the deterministic output order every batch API guarantees
// regardless of worker count. (A multi-label FQDN can match through
// more than one of its labels, so the label breaks FQDN ties.)
func compareMatch(a, b *Match) int {
	if c := strings.Compare(a.FQDN, b.FQDN); c != 0 {
		return c
	}
	if c := strings.Compare(a.IDN, b.IDN); c != 0 {
		return c
	}
	return strings.Compare(a.Reference, b.Reference)
}

// Detect scans a set of domains (full FQDNs on any TLD, or bare IDN
// labels) across GOMAXPROCS workers and returns every (domain,
// reference) match, sorted by FQDN, then IDN, then reference.
func (d *Detector) Detect(domains []string) []Match {
	return d.DetectParallel(domains, 0)
}

// DetectParallel is Detect with an explicit worker count (≤ 0 means
// GOMAXPROCS). The result is deterministic: workers accumulate private
// match slices which are concatenated and sorted exactly once.
func (d *Detector) DetectParallel(domains []string, workers int) []Match {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(domains) {
		workers = len(domains)
	}
	var out []Match
	if workers <= 1 {
		for _, idn := range domains {
			out = append(out, d.DetectDomain(idn)...)
		}
	} else {
		parts := make([][]Match, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var local []Match
				for i := w; i < len(domains); i += workers {
					local = append(local, d.DetectDomain(domains[i])...)
				}
				parts[w] = local
			}(w)
		}
		wg.Wait()
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		out = make([]Match, 0, n)
		for _, p := range parts {
			out = append(out, p...)
		}
	}
	SortMatches(out)
	return out
}

// DetectStream scans domains arriving on in across workers (≤ 0 means
// GOMAXPROCS) and sends every match on the returned channel, which is
// closed once in is drained. Workers reuse the detector's per-call
// buffers, so steady-state allocation is O(matches); match order across
// domains is not deterministic — stream consumers that need the batch
// ordering should sort with SortMatches.
func (d *Detector) DetectStream(in <-chan string, workers int) <-chan Match {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(chan Match, 4*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idn := range in {
				for _, m := range d.DetectDomain(idn) {
					out <- m
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// DetectStreamBytes is DetectStream for pooled line buffers: normalized
// zone lines (full FQDNs, any TLD) arrive as *[]byte, and each buffer is
// handed back to recycle (when non-nil) as soon as its domain has been
// scanned. Together with DetectDomainBytes' lazy string materialization
// this makes the whole line→match pipeline allocation-free in steady
// state on the miss path — the common case at zone scale, where ~99% of
// domains match nothing.
func (d *Detector) DetectStreamBytes(in <-chan *[]byte, workers int, recycle *sync.Pool) <-chan Match {
	return d.DetectStreamBytesBackend(in, workers, recycle, BackendPostings)
}

// DetectStreamBytesBackend is DetectStreamBytes with an explicit backend
// choice — the CLI's `detect -backend` stream path.
func (d *Detector) DetectStreamBytesBackend(in <-chan *[]byte, workers int, recycle *sync.Pool, be Backend) <-chan Match {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make(chan Match, 4*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bp := range in {
				for _, m := range d.DetectDomainBytesBackend(*bp, be) {
					out <- m
				}
				if recycle != nil {
					recycle.Put(bp)
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// SortMatches sorts matches into the deterministic batch order (FQDN,
// then IDN, then reference), e.g. after collecting a DetectStream.
//
// A Match is over a hundred bytes, so the sort permutes small keys
// instead: each holds a match's index and the first eight bytes of its
// FQDN as a big-endian integer, which orders like the FQDN wherever the
// two differ, so most comparisons never touch the matches. Equal
// prefixes fall back to compareMatch on the matches in place, and full
// ties keep their input order. The sorted keys are then applied by
// following the permutation's cycles, moving every match once.
func SortMatches(matches []Match) {
	if len(matches) < 2 {
		return
	}
	keys := make([]sortKey, len(matches))
	for i := range matches {
		keys[i] = sortKey{prefix: fqdnPrefix(matches[i].FQDN), idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.prefix != b.prefix {
			return cmp.Compare(a.prefix, b.prefix)
		}
		if c := compareMatch(&matches[a.idx], &matches[b.idx]); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// Slot i takes matches[keys[i].idx]. Each cycle is rotated through
	// one saved match, and a finished slot is marked keys[j].idx == j.
	for i := range keys {
		if keys[i].idx == int32(i) {
			continue
		}
		saved := matches[i]
		j := int32(i)
		for {
			k := keys[j].idx
			keys[j].idx = j
			if k == int32(i) {
				matches[j] = saved
				break
			}
			matches[j] = matches[k]
			j = k
		}
	}
}

// sortKey is SortMatches' stand-in for one match.
type sortKey struct {
	prefix uint64 // fqdnPrefix(FQDN)
	idx    int32  // index into the matches being sorted
}

// fqdnPrefix packs the first eight bytes of s, zero-padded, big-endian:
// s < t implies fqdnPrefix(s) <= fqdnPrefix(t).
func fqdnPrefix(s string) uint64 {
	var b [8]byte
	copy(b[:], s)
	return binary.BigEndian.Uint64(b[:])
}

// DetectedIDNs collapses matches to the distinct set of homograph IDNs —
// the counting unit of the paper's Table 8.
func DetectedIDNs(matches []Match) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range matches {
		if !seen[m.IDN] {
			seen[m.IDN] = true
			out = append(out, m.IDN)
		}
	}
	sort.Strings(out)
	return out
}

// TargetHistogram counts matches per reference — Table 9's "top targeted
// domains".
func TargetHistogram(matches []Match) map[string]int {
	h := map[string]int{}
	byIDN := map[string]map[string]bool{}
	for _, m := range matches {
		if byIDN[m.Reference] == nil {
			byIDN[m.Reference] = map[string]bool{}
		}
		byIDN[m.Reference][m.IDN] = true
	}
	for ref, idns := range byIDN {
		h[ref] = len(idns)
	}
	return h
}

// Revert maps a (possibly undetected) IDN label back to its most plausible
// original domain label — Section 6.4's countermeasure for homographs of
// unpopular domains. If the label is a homograph of a known reference,
// the reference wins (this resolves direction-ambiguous pairs such as
// CJK 工 vs Katakana エ); otherwise every character is canonicalized
// independently.
func (d *Detector) Revert(idnLabel string) (string, error) {
	if matches := d.DetectLabel(idnLabel); len(matches) > 0 {
		return matches[0].Reference, nil
	}
	uni, err := punycode.ToUnicodeLabel(idnLabel)
	if err != nil {
		return "", err
	}
	return d.db.Revert(uni), nil
}
