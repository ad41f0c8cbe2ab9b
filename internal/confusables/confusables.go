// Package confusables implements the Unicode TR39 confusables database
// ("UC" in the paper): the file format of confusables.txt, a lookup
// structure mapping characters to their confusability skeletons, and the
// embedded dataset this reproduction ships in place of the Unicode
// consortium's manually maintained file.
package confusables

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ucd"
)

// Entry is one confusable mapping: Source is visually confusable with the
// Target sequence. TR39 calls Target the "skeleton" prototype.
type Entry struct {
	Source  rune
	Target  []rune
	Comment string
}

// DB is a parsed confusables database.
type DB struct {
	entries map[rune][]rune
	comment map[rune]string

	// Provenance: the pinned Unicode version the table was generated
	// against and the generation timestamp, carried through Parse/Write
	// so regenerating the committed data file is a reviewable diff.
	unicodeVersion string
	generatedAt    string
}

// New returns an empty database.
func New() *DB {
	return &DB{entries: make(map[rune][]rune), comment: make(map[rune]string)}
}

// Add inserts a mapping from source to target sequence.
func (db *DB) Add(source rune, target []rune, comment string) {
	cp := make([]rune, len(target))
	copy(cp, target)
	db.entries[source] = cp
	if comment != "" {
		db.comment[source] = comment
	}
}

// FromRows builds a database from rows laid out flat, as the snapshot
// codec stores them: row i maps sources[i] to the next lens[i] runes of
// targets, with comments[i]. The database takes targets as its rune
// arena; each entry's target is a cap-limited subslice of it, so
// nothing is copied per entry. Rows apply in order, as Add would apply
// them.
func FromRows(sources []rune, lens []int32, targets []rune, comments []string) (*DB, error) {
	if len(lens) != len(sources) || len(comments) != len(sources) {
		return nil, fmt.Errorf("confusables: %d sources, %d target lengths, %d comments", len(sources), len(lens), len(comments))
	}
	db := &DB{entries: make(map[rune][]rune, len(sources)), comment: make(map[rune]string)}
	off := 0
	for i, src := range sources {
		l := int(lens[i])
		if l < 0 || l > len(targets)-off {
			return nil, fmt.Errorf("confusables: row %d: target length %d overruns %d target runes", i, l, len(targets))
		}
		db.entries[src] = targets[off : off+l : off+l]
		off += l
		if comments[i] != "" {
			db.comment[src] = comments[i]
		}
	}
	if off != len(targets) {
		return nil, fmt.Errorf("confusables: %d target runes claimed by no row", len(targets)-off)
	}
	return db, nil
}

// AppendChars appends the characters of Chars to dst, each at least
// once and in no particular order, and returns the extended slice.
func (db *DB) AppendChars(dst []rune) []rune {
	for src, tgt := range db.entries {
		dst = append(append(dst, src), tgt...)
	}
	return dst
}

// Lookup returns the skeleton target for source, if listed.
func (db *DB) Lookup(source rune) ([]rune, bool) {
	t, ok := db.entries[source]
	return t, ok
}

// Confusable reports whether a and b share a skeleton: either one maps to
// the other, or both map to the same prototype sequence. This is the pair
// test the detection algorithm uses ("r[i] and x[i] are listed as a
// pair"). The comparison is over the FULL prototype sequences, so a rune
// whose prototype is multi-rune ('m' → "rn") is never pairwise-confusable
// with the first rune of that sequence — such pairs are the many-to-one
// class only whole-label skeleton comparison can catch.
func (db *DB) Confusable(a, b rune) bool {
	if a == b {
		return true
	}
	var bufA, bufB [16]rune
	sa := db.SkeletonAppend(bufA[:0], a)
	sb := db.SkeletonAppend(bufB[:0], b)
	if len(sa) != len(sb) {
		return false
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return false
		}
	}
	return true
}

// SkeletonAppend appends r's full prototype sequence to dst and returns
// the extended slice. A multi-rune target is expanded in full — and each rune of the target is itself
// resolved recursively (bounded, to tolerate accidental cycles), so the
// result is the fixed point TR39 calls the prototype. A rune with no
// entry appends itself.
func (db *DB) SkeletonAppend(dst []rune, r rune) []rune {
	return db.skeletonExpand(dst, r, 0)
}

func (db *DB) skeletonExpand(dst []rune, r rune, depth int) []rune {
	t, ok := db.entries[r]
	if !ok || len(t) == 0 || depth >= 8 || (len(t) == 1 && t[0] == r) {
		return append(dst, r)
	}
	for _, tr := range t {
		dst = db.skeletonExpand(dst, tr, depth+1)
	}
	return dst
}

// CanonicalRune resolves r through the single-rune portion of its chain:
// it follows entries only while the target is a single rune, stopping
// before any multi-rune expansion. This is the "most plausible original
// character" used for §6.4 reversion — a rune that prototypes to a
// sequence has no one-rune original, so the walk stops at the last
// single-rune form.
func (db *DB) CanonicalRune(r rune) rune {
	cur := r
	for depth := 0; depth < 8; depth++ {
		t, ok := db.entries[cur]
		if !ok || len(t) != 1 || t[0] == cur {
			return cur
		}
		if nt, ok := db.entries[t[0]]; ok && len(nt) > 1 {
			return t[0]
		}
		cur = t[0]
	}
	return cur
}

// Hangul syllable decomposition constants (UAX #15 §3.12).
const (
	hangulSBase  = 0xAC00
	hangulLBase  = 0x1100
	hangulVBase  = 0x1161
	hangulTBase  = 0x11A7
	hangulVCount = 21
	hangulTCount = 28
	hangulNCount = hangulVCount * hangulTCount
	hangulSCount = 19 * hangulNCount
)

// decomposeAppend applies the NFD step of skeleton(X). Hangul syllables
// decompose algorithmically; every other code point is carried through
// unchanged — the embedded dataset keys no entries on non-Hangul
// precomposed forms, so the table-driven remainder of NFD would be a
// no-op over it (a documented restriction of the synthetic data, not of
// the algorithm).
func decomposeAppend(dst []rune, r rune) []rune {
	if r >= hangulSBase && r < hangulSBase+hangulSCount {
		si := r - hangulSBase
		dst = append(dst, hangulLBase+si/hangulNCount, hangulVBase+(si%hangulNCount)/hangulTCount)
		if t := si % hangulTCount; t > 0 {
			dst = append(dst, hangulTBase+t)
		}
		return dst
	}
	return append(dst, r)
}

// Skeleton implements TR39's skeleton(X): decompose (NFD), map every rune
// to its full prototype sequence, and concatenate. Two strings are
// confusable iff their skeletons are equal — including many-to-one
// confusions ("rn" vs "m") that no per-character comparison can see.
func (db *DB) Skeleton(s string) string {
	out := make([]rune, 0, len(s))
	var nfd [3]rune
	for _, r := range s {
		for _, dr := range decomposeAppend(nfd[:0], r) {
			out = db.SkeletonAppend(out, dr)
		}
	}
	return string(out)
}

// UnicodeVersion returns the pinned Unicode version the table was
// generated against ("" when unrecorded).
func (db *DB) UnicodeVersion() string { return db.unicodeVersion }

// GeneratedAt returns the table's generation timestamp ("" when
// unrecorded).
func (db *DB) GeneratedAt() string { return db.generatedAt }

// SetProvenance records the pinned Unicode version and generation stamp
// that Write emits and Parse recovers.
func (db *DB) SetProvenance(unicodeVersion, generatedAt string) {
	db.unicodeVersion = unicodeVersion
	db.generatedAt = generatedAt
}

// Sources returns all source code points in ascending order.
func (db *DB) Sources() []rune {
	out := make([]rune, 0, len(db.entries))
	for r := range db.entries {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of source entries.
func (db *DB) Len() int { return len(db.entries) }

// Entries returns every mapping, sources ascending — the canonical
// iteration the snapshot codec serializes. Target slices are copies.
func (db *DB) Entries() []Entry {
	out := make([]Entry, 0, len(db.entries))
	for _, src := range db.Sources() {
		tgt := db.entries[src]
		cp := make([]rune, len(tgt))
		copy(cp, tgt)
		out = append(out, Entry{Source: src, Target: cp, Comment: db.comment[src]})
	}
	return out
}

// Chars returns the set of all code points mentioned (sources and targets),
// the paper's "number of characters" accounting for Table 1.
func (db *DB) Chars() *ucd.RuneSet {
	return ucd.NewRuneSet(db.AppendChars(nil)...)
}

// Pairs returns the number of (source, prototype) homoglyph pairs.
func (db *DB) Pairs() int { return len(db.entries) }

// RestrictSources returns a new DB keeping only entries whose source is in
// keep — e.g. UC ∩ IDNA, the paper's Figure 3 intersection.
func (db *DB) RestrictSources(keep *ucd.RuneSet) *DB {
	out := New()
	out.unicodeVersion, out.generatedAt = db.unicodeVersion, db.generatedAt
	for src, tgt := range db.entries {
		if keep.Contains(src) {
			out.Add(src, tgt, db.comment[src])
		}
	}
	return out
}

// Parse reads the TR39 confusables.txt format:
//
//	0430 ;	0061 ;	MA	# ( а → a ) CYRILLIC SMALL LETTER A → LATIN SMALL LETTER A
//
// Lines may be prefixed with a BOM, blank, or comment-only.
func Parse(r io.Reader) (*DB, error) {
	db := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimPrefix(sc.Text(), "\uFEFF")
		if v, ok := strings.CutPrefix(line, "# UnicodeVersion:"); ok {
			db.unicodeVersion = strings.TrimSpace(v)
			continue
		}
		if v, ok := strings.CutPrefix(line, "# GeneratedAt:"); ok {
			db.generatedAt = strings.TrimSpace(v)
			continue
		}
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Split(line, ";")
		if len(fields) < 2 {
			return nil, fmt.Errorf("confusables: line %d: want 'source ; target [; type]'", lineNo)
		}
		src, err := parseHexSeq(fields[0])
		if err != nil {
			return nil, fmt.Errorf("confusables: line %d: source: %v", lineNo, err)
		}
		if len(src) != 1 {
			// TR39 sources are single code points; sequences appear only in
			// the (obsolete) SL/ML tables which we reject gracefully.
			return nil, fmt.Errorf("confusables: line %d: multi-codepoint source unsupported", lineNo)
		}
		tgt, err := parseHexSeq(fields[1])
		if err != nil {
			return nil, fmt.Errorf("confusables: line %d: target: %v", lineNo, err)
		}
		if len(tgt) == 0 {
			return nil, fmt.Errorf("confusables: line %d: empty target", lineNo)
		}
		db.Add(src[0], tgt, "")
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("confusables: %w", err)
	}
	return db, nil
}

func parseHexSeq(s string) ([]rune, error) {
	var out []rune
	for _, tok := range strings.Fields(strings.TrimSpace(s)) {
		v, err := strconv.ParseUint(tok, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("bad code point %q", tok)
		}
		out = append(out, rune(v))
	}
	return out, nil
}

// Write serializes the database in confusables.txt format, sources
// ascending, using the MA (mixed-script any-case) class throughout.
func (db *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# confusables.txt — synthetic UC database (ShamFinder reproduction)"); err != nil {
		return err
	}
	if db.unicodeVersion != "" {
		if _, err := fmt.Fprintf(bw, "# UnicodeVersion: %s\n", db.unicodeVersion); err != nil {
			return err
		}
	}
	if db.generatedAt != "" {
		if _, err := fmt.Fprintf(bw, "# GeneratedAt: %s\n", db.generatedAt); err != nil {
			return err
		}
	}
	for _, src := range db.Sources() {
		tgt := db.entries[src]
		parts := make([]string, len(tgt))
		for i, t := range tgt {
			parts[i] = fmt.Sprintf("%04X", t)
		}
		comment := db.comment[src]
		if comment == "" {
			comment = fmt.Sprintf("( %c → %s )", src, string(tgt))
		}
		if _, err := fmt.Fprintf(bw, "%04X ;\t%s ;\tMA\t# %s\n", src, strings.Join(parts, " "), comment); err != nil {
			return err
		}
	}
	return bw.Flush()
}
