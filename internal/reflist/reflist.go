// Package reflist loads reference domain lists — the brand names the
// detector protects — from the two formats defenders actually have:
// a plain one-domain-per-line file or an Alexa-style "rank,domain"
// CSV, both tolerating blank lines and #-comments. Each domain
// contributes its registrable label, suffix-aware, so amazon.co.uk
// indexes "amazon" just as google.com indexes "google", on any TLD.
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
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/homoglyph"
	"repro/internal/ranking"
	"repro/internal/snapshot"
)

// maxLineBytes bounds one list line; zone-scale lists stay streamable.
const maxLineBytes = 16 * 1024 * 1024

// Load reads reference labels from a plain list or rank CSV at path.
func Load(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Only the first line that holds a domain is sniffed for the CSV
	// comma. Blank lines and #-comments are skipped, so a comment
	// with a comma cannot route a plain list to the CSV parser, and a
	// commented CSV is still read as one. A comma further down never
	// counts. Read/seek errors are reported instead of ignored.
	sniff := bufio.NewScanner(f)
	sniff.Buffer(make([]byte, 64*1024), maxLineBytes)
	isCSV := false
	for sniff.Scan() {
		if line := strings.TrimSpace(sniff.Text()); line != "" && !strings.HasPrefix(line, "#") {
			isCSV = strings.Contains(line, ",")
			break
		}
	}
	if err := sniff.Err(); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if isCSV {
		return ReadCSV(f)
	}
	return Read(f)
}

// Read parses a plain domain list: one domain per line, blank lines
// and #-comments skipped, each domain reduced to its registrable label.
func Read(r io.Reader) ([]string, error) {
	var refs []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineBytes)
	for sc.Scan() {
		d := strings.TrimSpace(sc.Text())
		if d == "" || strings.HasPrefix(d, "#") {
			continue
		}
		if label, _ := domain.Registrable(strings.ToLower(d)); label != "" {
			refs = append(refs, label)
		}
	}
	return refs, sc.Err()
}

// Labels reduces an inline reference list exactly the way the file
// loaders reduce their lines: whitespace trimmed, blanks and
// #-comments skipped, lowercased, and cut to the registrable label —
// so {"references":["paypal.com"]} over the reload API indexes
// "paypal", not an inert dotted literal no label can ever match.
func Labels(domains []string) []string {
	refs := make([]string, 0, len(domains))
	for _, d := range domains {
		d = strings.TrimSpace(d)
		if d == "" || strings.HasPrefix(d, "#") {
			continue
		}
		if label, _ := domain.Registrable(strings.ToLower(d)); label != "" {
			refs = append(refs, label)
		}
	}
	return refs
}

// ReadCSV parses an Alexa-style "rank,domain" CSV, keeping rank order.
// Blank lines and #-comments are skipped.
func ReadCSV(r io.Reader) ([]string, error) {
	list, err := ranking.ParseCSV(r)
	if err != nil {
		return nil, err
	}
	return list.SLDs(list.Len()), nil
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
		if res.DB, embedded, err = snapshot.ReadFile(snapshotPath); err != nil {
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
