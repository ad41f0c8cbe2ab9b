package reflist

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/homoglyph"
	"repro/internal/simchar"
	"repro/internal/snapshot"
)

// TestResolveSkipsDroppedDetector: Resolve rebuilds a snapshot's
// embedded detector only when it serves. The snapshot here embeds a
// detector whose section is well framed but holds a reference in upper
// case, which the compile would have folded, so rebuilding it fails. Without a list
// the snapshot is rejected; with a list, or without need, the detector
// would be dropped, so the snapshot resolves.
func TestResolveSkipsDroppedDetector(t *testing.T) {
	db := homoglyph.New(nil, simchar.FromPairs([]simchar.Pair{{A: 'o', B: 'о'}}), 0)
	clean := snapshot.Marshal(db, core.NewDetector(db, []string{"google"}))
	payload, err := snapshot.OpenEnvelope(clean, snapshot.Magic, snapshot.Version)
	if err != nil {
		t.Fatal(err)
	}
	dbOnly, err := snapshot.OpenEnvelope(snapshot.Marshal(db, nil), snapshot.Magic, snapshot.Version)
	if err != nil {
		t.Fatal(err)
	}
	// The detector section follows the database's and opens with the
	// reference list.
	at := len(dbOnly) + bytes.Index(payload[len(dbOnly):], []byte("google"))
	if at < len(dbOnly) {
		t.Fatal("reference not found in the detector section")
	}
	payload = slices.Clone(payload)
	copy(payload[at:], "GOOGLE")

	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cleanPath := write("clean.snap", clean)
	badPath := write("bad.snap", snapshot.SealEnvelope(snapshot.Magic, snapshot.Version, payload))
	refs := write("refs.txt", []byte("paypal.com\n"))

	if res, err := Resolve(cleanPath, "", nil, nil, true); err != nil || !slices.Equal(res.Detector.References(), []string{"google"}) {
		t.Fatalf("clean snapshot: %v", err)
	}
	if _, err := Resolve(badPath, "", nil, nil, true); err == nil || !strings.Contains(err.Error(), "not normalized") {
		t.Fatalf("embedded detector with an upper-case reference: err = %v, want a reference error", err)
	}
	for _, c := range []struct {
		name   string
		refs   string
		inline []string
		need   bool
		want   []string // the detector's references; nil = no detector
	}{
		{name: "refs file", refs: refs, need: true, want: []string{"paypal"}},
		{name: "inline", inline: []string{"paypal.com"}, need: true, want: []string{"paypal"}},
		{name: "no need", need: false},
		{name: "refs file, no need", refs: refs, need: false},
	} {
		res, err := Resolve(badPath, c.refs, c.inline, nil, c.need)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.want == nil {
			if res.Detector != nil {
				t.Errorf("%s: a detector was built", c.name)
			}
			continue
		}
		if res.Detector == nil || !slices.Equal(res.Detector.References(), c.want) {
			t.Errorf("%s: detector %v, want references %q", c.name, res.Detector, c.want)
		}
	}
}
