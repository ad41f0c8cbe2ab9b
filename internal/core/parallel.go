package core

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/domain"
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
// labels) under the posting backend across GOMAXPROCS workers and
// returns every (domain, reference) match, sorted by FQDN, then IDN,
// then reference.
func (d *Detector) Detect(domains []string) []Match {
	return d.detect(domains, 0)
}

// detect is Detect with an explicit worker count (≤ 0 means
// GOMAXPROCS).
func (d *Detector) detect(domains []string, workers int) []Match {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, len(domains)))
	return fanOut(workers, func(w int) (out []Match) {
		for i := w; i < len(domains); i += workers {
			out = detectDomain(d, out, domains[i], BackendPostings)
		}
		return out
	})
}

// fanOut runs scan on workers goroutines, each appending to a private
// match slice, and returns their matches concatenated and sorted
// exactly once, so the result is the same for any worker count.
func fanOut(workers int, scan func(w int) []Match) []Match {
	parts := make([][]Match, workers)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = scan(w)
		}()
	}
	wg.Wait()
	out := slices.Concat(parts...)
	SortMatches(out)
	return out
}

// NormalizeZoneLine prepares one line of a domain list or zone file, or
// one queried name, for detection under backend be, in place and
// without allocating: one leading byte-order mark is dropped, ASCII
// whitespace is trimmed, one trailing root dot is dropped and ASCII
// letters are lowercased. Under the posting backend the line must also
// hold a candidate, an ACE label left of its suffix, a bare ACE label
// or a non-ASCII byte, since no other name can match there; a backend
// with the skeleton index keeps every non-blank line, because a
// pure-ASCII "rnicrosoft.com" is the class it exists to catch. A kept
// line with an inner space or tab is a master-file record ("name TTL
// IN NS ..."): its first field, the owner name, is normalized and gated
// again on its own, so a line the gate rejects costs no field cut. The
// returned name aliases line.
//
//shamlint:noalloc
func NormalizeZoneLine(line []byte, be Backend) ([]byte, bool) {
	if len(line) >= 3 && line[0] == 0xEF && line[1] == 0xBB && line[2] == 0xBF {
		line = line[3:] // a UTF-8 byte-order mark
	}
	for {
		var name []byte
		var ok bool
		if be&BackendSkeleton != 0 {
			name, ok = domain.NormalizeZoneLineAll(line)
		} else {
			name, ok = domain.NormalizeZoneLine(line)
		}
		if !ok {
			return nil, false
		}
		field := name
		if i := bytes.IndexByte(field, ' '); i >= 0 {
			field = field[:i]
		}
		if i := bytes.IndexByte(field, '\t'); i >= 0 {
			field = field[:i]
		}
		if len(field) == len(name) {
			return name, true
		}
		// The field holds no blank, so this loops once more.
		line = field
	}
}

// lineBlock is the size of the blocks in which DetectLines hands kept
// names to its workers.
const lineBlock = 4 << 10

// DetectLines scans the domain list or zone file r, one name or
// master-file record per line of up to 16 MiB, under backend be across
// workers (≤ 0 means GOMAXPROCS). It returns every match, sorted as
// SortMatches orders them for any worker count, and how many lines
// NormalizeZoneLine kept. One goroutine reads and normalizes while the
// workers detect, so reading overlaps scanning and memory holds the
// kept names in flight, not the file. Kept names travel newline-joined
// in 4 KiB blocks, 2×workers of them cycling between the reader and
// the workers, so a call's allocations on the miss path do not grow
// with its line count.
func (d *Detector) DetectLines(r io.Reader, workers int, be Backend) ([]Match, int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	free := make(chan []byte, 2*workers)
	for range cap(free) {
		free <- make([]byte, 0, lineBlock)
	}
	full := make(chan []byte, cap(free))
	scanned := 0
	var readErr error
	go func() {
		defer close(full)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		block := <-free
		for sc.Scan() {
			name, ok := NormalizeZoneLine(sc.Bytes(), be)
			if !ok {
				continue
			}
			scanned++
			if len(block) > 0 && len(block)+len(name) >= cap(block) {
				full <- block
				block = <-free
			}
			block = append(append(block, name...), '\n')
		}
		readErr = sc.Err()
		full <- block
	}()
	matches := fanOut(workers, func(int) (out []Match) {
		for block := range full {
			for rest := block; len(rest) > 0; {
				i := bytes.IndexByte(rest, '\n')
				out = detectDomain(d, out, rest[:i], be)
				rest = rest[i+1:]
			}
			free <- block[:0]
		}
		return out
	})
	if readErr != nil {
		return nil, scanned, readErr
	}
	return matches, scanned, nil
}

// SortMatches sorts matches into the deterministic batch order (FQDN,
// then IDN, then reference). Full ties keep their input order.
//
// A Match is over a hundred bytes, so the sort orders small keys
// instead, by MSD radix: each key holds a match's index, the next eight
// bytes of the field under comparison as a big-endian digit (zero
// padded), and how many bytes of the field remain from there, capped at
// 9. Keys order like their fields' bytes, and only a key left with 9
// (more than the digit holds) can tie with a longer field, so a run of
// equal keys recurses eight bytes deeper while bytes remain, or else
// moves on to the next field. Each run sorts stably: a byte-wise LSD
// pass over its keys when it is long, insertion sort when it is short,
// and insertion sort on the matches themselves once the run is no
// longer than 16. The sorted keys are then applied by
// following the permutation's cycles, moving every match once.
func SortMatches(matches []Match) {
	n := len(matches)
	if n < 2 {
		return
	}
	buf := make([]radixKey, 2*n)
	keys := buf[:n]
	for i := range keys {
		keys[i].idx = int32(i)
	}
	ms := matchSorter{matches: matches, tmp: buf[n:]}
	ms.sort(keys, 0, 0)
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

// radixKey is SortMatches' stand-in for one match at one radix level.
type radixKey struct {
	digit uint64 // eight field bytes from the level's depth, big-endian
	idx   int32  // index into the matches being sorted
	rem   uint8  // field bytes left from the depth, capped at 9
}

// Key runs longer than lsdMin sort by LSD radix, shorter ones by
// insertion; runs of at most compareMax sort on compareMatch directly.
const (
	lsdMin     = 48
	compareMax = 16
)

// matchSorter carries SortMatches' state down the radix recursion.
type matchSorter struct {
	matches []Match
	tmp     []radixKey // LSD scatter target, as long as the matches
}

// field returns the sort field f (0 FQDN, 1 IDN, 2 Reference) of m.
func field(m *Match, f int) string {
	switch f {
	case 0:
		return m.FQDN
	case 1:
		return m.IDN
	}
	return m.Reference
}

// sort orders keys, whose matches agree on the fields before f and on
// the first depth bytes of field f.
func (s *matchSorter) sort(keys []radixKey, f, depth int) {
	if len(keys) <= compareMax {
		s.insertionByMatch(keys)
		return
	}
	for i := range keys {
		keys[i].digit, keys[i].rem = digitAt(field(&s.matches[keys[i].idx], f), depth)
	}
	if len(keys) > lsdMin {
		s.lsd(keys)
	} else {
		insertionByKey(keys)
	}
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j].digit == keys[i].digit && keys[j].rem == keys[i].rem {
			j++
		}
		if j-i > 1 {
			switch {
			case keys[i].rem > 8:
				s.sort(keys[i:j], f, depth+8)
			case f < 2:
				s.sort(keys[i:j], f+1, 0)
			}
		}
		i = j
	}
}

// digitAt returns the eight bytes of s from depth as a big-endian
// integer, zero padded, and the count of bytes left from depth, capped
// at 9.
func digitAt(s string, depth int) (uint64, uint8) {
	if depth >= len(s) {
		return 0, 0
	}
	s = s[depth:]
	if len(s) >= 8 {
		return uint64(s[0])<<56 | uint64(s[1])<<48 | uint64(s[2])<<40 | uint64(s[3])<<32 |
			uint64(s[4])<<24 | uint64(s[5])<<16 | uint64(s[6])<<8 | uint64(s[7]), uint8(min(len(s), 9))
	}
	var d uint64
	for i := 0; i < len(s); i++ {
		d |= uint64(s[i]) << (56 - 8*i)
	}
	return d, uint8(len(s))
}

// lsd sorts keys stably by (digit, rem), one byte per pass from the
// least significant (rem) up, skipping bytes every key shares.
func (s *matchSorter) lsd(keys []radixKey) {
	var counts [9][256]int32 // counts[0] is rem, counts[b] digit byte b-1 from the bottom
	for _, k := range keys {
		counts[0][k.rem]++
		for b := 1; b < 9; b++ {
			counts[b][byte(k.digit>>(8*(b-1)))]++
		}
	}
	n := int32(len(keys))
	src, dst := keys, s.tmp[:len(keys)]
	for b := range counts {
		c := &counts[b]
		at := func(k *radixKey) byte {
			if b == 0 {
				return k.rem
			}
			return byte(k.digit >> (8 * (b - 1)))
		}
		if c[at(&src[0])] == n {
			continue
		}
		var sum int32
		for v := range c {
			c[v], sum = sum, sum+c[v]
		}
		for i := range src {
			v := at(&src[i])
			dst[c[v]] = src[i]
			c[v]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// insertionByKey sorts a short run stably by (digit, rem).
func insertionByKey(keys []radixKey) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0 && (keys[j-1].digit > k.digit || keys[j-1].digit == k.digit && keys[j-1].rem > k.rem); j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
}

// insertionByMatch sorts a short run stably by compareMatch.
func (s *matchSorter) insertionByMatch(keys []radixKey) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for ; j > 0 && compareMatch(&s.matches[k.idx], &s.matches[keys[j-1].idx]) < 0; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
	}
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
	if matches := detectLabel(d, idnLabel, BackendPostings); len(matches) > 0 {
		return matches[0].Reference, nil
	}
	uni, err := punycode.ToUnicodeLabel(idnLabel)
	if err != nil {
		return "", err
	}
	return d.db.Revert(uni), nil
}
