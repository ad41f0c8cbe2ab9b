// Package reflist loads reference domain lists — the brand names the
// detector protects — from the two formats defenders actually have:
// a plain one-domain-per-line file or an Alexa-style "rank,domain"
// CSV, both tolerating blank lines, #-comments and a leading UTF-8
// byte-order mark. Each domain contributes its registrable label,
// suffix-aware, so amazon.co.uk indexes "amazon" just as google.com
// indexes "google", on any TLD.
//
// Load reads the file once. A plain list's labels are cut out of that
// buffer and end up back to back in one string, so a loaded list holds
// neither the file's comments nor its TLDs; a plain line and an
// inline reference (Labels) go through the same reduction. A rank CSV
// is read by ranking.ParseCSV, the one parser of that format.
//
// Resolve holds the one rule that picks a detector from a snapshot
// path, a reference file and inline references. Every surface that
// needs a detector calls it: the CLI (compile, detect, survey,
// explain, revert, glyphs), Serve and WatchZone, /v1/reload and the
// snapshot watcher. A reference list is the unit of hot reload, so
// a list that loaded differently over HTTP than it did at startup
// would make epochs incomparable.
package reflist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"iter"
	"os"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/ranking"
	"repro/internal/snapshot"
)

// maxLineBytes bounds one plain-list line, counted without its
// newline, so zone-scale lists stay readable. A rank-CSV line has
// ranking.ParseCSV's limit.
const maxLineBytes = 16 * 1024 * 1024

// bom is the UTF-8 byte-order mark Windows editors write first.
const bom = "\ufeff"

// Load reads reference labels from a plain list or rank CSV at path.
// The whole file is held in memory while it is read.
func Load(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

// parse reads a list file's bytes. One leading byte-order mark is
// dropped. Only the first line that holds an entry is sniffed for the
// CSV comma: blank lines and #-comments are skipped, so a comment with
// a comma cannot route a plain list to the CSV parser, and a commented
// CSV is still read as one. A comma further down never counts. A rank
// CSV keeps the best-ranked row of each label.
func parse(data []byte) ([]string, error) {
	data = bytes.TrimPrefix(data, []byte(bom))
	isCSV, err := sniff(data)
	if err != nil {
		return nil, err
	}
	if isCSV {
		list, err := ranking.ParseCSV(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		return list.SLDs(list.Len()), nil
	}
	return readPlain(data)
}

// lines yields the lines of data as bufio.ScanLines cuts them: without
// their newline, and a last line without one unless it is empty.
func lines(data []byte) iter.Seq[[]byte] {
	return func(yield func([]byte) bool) {
		for line := range bytes.Lines(data) {
			if !yield(bytes.TrimSuffix(line, []byte{'\n'})) {
				return
			}
		}
	}
}

// sniff reports whether the first entry line holds a comma.
func sniff(data []byte) (bool, error) {
	for line := range lines(data) {
		if len(line) >= maxLineBytes {
			return false, bufio.ErrTooLong
		}
		if e := bytes.TrimSpace(line); len(e) > 0 && e[0] != '#' {
			return bytes.IndexByte(e, ',') >= 0, nil
		}
	}
	return false, nil
}

// readPlain reads a plain domain list: one domain per line.
func readPlain(data []byte) ([]string, error) {
	buf := make([]byte, 0, len(data)+1)
	for line := range lines(data) {
		if len(line) >= maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		buf = appendLabel(buf, line)
	}
	return splitLabels(buf), nil
}

// Labels reduces an inline reference list exactly the way the file
// loaders reduce their lines: whitespace trimmed, blanks and
// #-comments skipped, lowercased, and cut to the registrable label —
// so {"references":["paypal.com"]} over the reload API indexes
// "paypal", not an inert dotted literal no label can ever match.
func Labels(domains []string) []string {
	n := 0
	for _, d := range domains {
		n += len(d) + 1
	}
	buf := make([]byte, 0, n)
	for _, d := range domains {
		buf = appendLabel(buf, d)
	}
	return splitLabels(buf)
}

// splitLabels copies the dot-closed labels in buf into one string and
// slices them out of it.
func splitLabels(buf []byte) []string {
	if len(buf) == 0 {
		return nil
	}
	return strings.Split(string(buf[:len(buf)-1]), ".")
}

// appendLabel appends the label of one entry — a plain-list line or
// an inline reference — to dst, closed by a dot, which no label holds:
// nothing for a blank entry, a #-comment or an empty label, else the
// entry trimmed, lowercased as strings.ToLower does it (an invalid
// byte turns into U+FFFD) and cut as domain.Registrable cuts it.
func appendLabel[S punycode.ByteSeq](dst []byte, entry S) []byte {
	start := len(dst)
	dst = append(dst, entry...)
	e := bytes.TrimSpace(dst[start:])
	if len(e) == 0 || e[0] == '#' {
		return dst[:start]
	}
	dst = dst[:start+copy(dst[start:], e)]
	name := dst[start:]
	for i, c := range name {
		if c >= utf8.RuneSelf {
			dst = lowerUnicode(dst, start+i)
			name = dst[start:]
			break
		}
		if 'A' <= c && c <= 'Z' {
			name[i] = c + 'a' - 'A'
		}
	}
	sp, _ := domain.RegistrableSpan(name)
	if sp.Start == sp.End {
		return dst[:start]
	}
	return append(append(dst[:start], name[sp.Start:sp.End]...), '.')
}

// lowerUnicode lowercases dst[from:] rune by rune. A rune can change
// its length, so the lowered runes are written past the end and then
// moved back.
func lowerUnicode(dst []byte, from int) []byte {
	end := len(dst)
	for i := from; i < end; {
		r, n := utf8.DecodeRune(dst[i:end])
		dst = utf8.AppendRune(dst, unicode.ToLower(r))
		i += n
	}
	return append(dst[:from], dst[end:]...)
}

// Resolved is the homoglyph database and detector Resolve picked.
type Resolved struct {
	// DB is the snapshot's database, or the caller's when no snapshot
	// is named.
	DB *homoglyph.DB
	// Detector serves queries. It is nil when no detector was asked
	// for.
	Detector *core.Detector
	// Refs holds the named list's labels, or nil when none was named.
	// The snapshot watcher pins them across artifact rollovers.
	Refs []string
	// Source says where the detector came from, as /v1/reload reports
	// it: "snapshot:P", "snapshot:P refs:R", "snapshot:P inline",
	// "refs:R" or "inline".
	Source string
}

// Resolve picks the homoglyph database and the detector from a
// snapshot path, a reference file and inline references:
//
//   - A reference file wins over inline references, and inline
//     references win over the snapshot's embedded detector.
//   - A named list that reduces to no labels is an error.
//   - With no snapshot, the database comes from fresh. It is called
//     only then, and only after the list has loaded.
//   - With need set, the detector is compiled over the named list or
//     else taken from the snapshot, and having neither is an error.
//     Without need no detector is compiled, but a named list is still
//     loaded and checked.
//   - The snapshot's embedded detector is rebuilt only when it serves:
//     with need set and no list named. The rest of the snapshot is
//     checked either way.
//
// Empty strings and an empty inline slice name nothing.
func Resolve(snapshotPath, refsPath string, inline []string, fresh func() (*homoglyph.DB, error), need bool) (Resolved, error) {
	var res Resolved
	var err error
	switch {
	case refsPath != "":
		if res.Refs, err = Load(refsPath); err != nil {
			return Resolved{}, fmt.Errorf("loading refs: %w", err)
		}
		if len(res.Refs) == 0 {
			return Resolved{}, fmt.Errorf("reference list %s is empty", refsPath)
		}
		res.Source = "refs:" + refsPath
	case len(inline) > 0:
		if res.Refs = Labels(inline); len(res.Refs) == 0 {
			return Resolved{}, errors.New("inline references reduce to no registrable labels")
		}
		res.Source = "inline"
	}
	var embedded *core.Detector
	if snapshotPath != "" {
		if res.DB, embedded, err = snapshot.Load(snapshotPath, need && res.Refs == nil); err != nil {
			return Resolved{}, fmt.Errorf("loading snapshot %s: %w", snapshotPath, err)
		}
		source := "snapshot:" + snapshotPath
		if res.Source != "" {
			source += " " + res.Source
		}
		res.Source = source
	} else {
		if need && res.Refs == nil {
			return Resolved{}, errors.New("need a reference list or a snapshot with an embedded detector")
		}
		if res.DB, err = fresh(); err != nil {
			return Resolved{}, err
		}
	}
	switch {
	case !need:
	case res.Refs != nil:
		res.Detector = core.NewDetector(res.DB, res.Refs)
	case embedded != nil:
		res.Detector = embedded
	default:
		return Resolved{}, fmt.Errorf("snapshot %s embeds no detector; name a reference list or recompile it with -refs", snapshotPath)
	}
	return res, nil
}
