package shamfinder

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/triage"
	"repro/internal/zonewatch"
)

// TestZoneFeederParity runs one set of zone lines through every surface
// that feeds lines to the detector, under every backend the surface
// accepts: DetectLines with 1 and 4 workers, /v1/detect over HTTP, and
// the deltas journal of a watch-zone scan, which is postings-only. The
// lines cover the shapes a feeder must normalize alike: a leading
// byte-order mark, mixed-case ACE, a root dot, surrounding whitespace,
// a CRLF ending, multi-label and ACE suffixes, a www. subdomain, the
// rn/vv/cl many-to-one names only the skeleton index sees, blank lines
// and a master-file record.
func TestZoneFeederParity(t *testing.T) {
	det := framework(t).NewDetector([]string{"google", "facebook", "amazon", "microsoft", "wikipedia", "dropbox"})
	const g = "xn--ggle-55da" // gооgle
	lines := []string{
		"\ufeff" + g + ".biz",
		"XN--Ggle-55DA.com",
		g + ".net.",
		"  xn--fcebook-2fg.com \t",
		g + ".org\r",
		"xn--mazon-3ve.co.uk",
		g + ".xn--p1ai",
		"www." + g + ".com",
		"rnicrosoft.com", "vvikipedia.org", "clropbox.com",
		"", "   ",
		g + ".info. 3600 IN NS ns1.example.",
		"plain.com", "sub.xn--p1ai",
	}
	zone := strings.Join(lines, "\n") + "\n"
	// The matched FQDNs in DetectLines' order. The byte-order mark is
	// dropped, so the first line matches like any other.
	postings := []string{
		"www." + g + ".com", "xn--fcebook-2fg.com", g + ".biz", g + ".com", g + ".info", g + ".net", g + ".org",
		g + ".xn--p1ai", "xn--mazon-3ve.co.uk",
	}
	skeleton := append([]string{"clropbox.com", "rnicrosoft.com", "vvikipedia.org"}, postings...)
	want := map[Backend][]string{BackendPostings: postings, BackendSkeleton: skeleton, BackendBoth: skeleton}
	// Kept lines: all but the blanks, and under postings alone also but
	// the ASCII names.
	kept := map[Backend]int{BackendPostings: 9, BackendSkeleton: 14, BackendBoth: 14}

	engine := EngineFor(det)
	ts := httptest.NewServer(service.New(service.Config{Engine: engine.inner}))
	defer ts.Close()
	wire := func(ms []service.Match) string {
		b, err := json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	for _, be := range []Backend{BackendPostings, BackendSkeleton, BackendBoth} {
		matches, scanned, err := det.DetectLines(strings.NewReader(zone), 1, be)
		if err != nil {
			t.Fatal(err)
		}
		var fqdns []string
		for _, m := range matches {
			fqdns = append(fqdns, m.FQDN)
		}
		if !slices.Equal(fqdns, want[be]) || scanned != kept[be] {
			t.Errorf("%v: kept %d lines and matched %q, want %d and %q", be, scanned, fqdns, kept[be], want[be])
		}
		if got, _, err := det.DetectLines(strings.NewReader(zone), 4, be); err != nil || !reflect.DeepEqual(got, matches) {
			t.Errorf("%v: 4 workers differ from 1 (err %v)", be, err)
		}

		body, _ := json.Marshal(map[string]any{"fqdns": lines, "backend": be.String()})
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var api struct{ Matches []service.Match }
		err = json.NewDecoder(resp.Body).Decode(&api)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := wire(api.Matches), wire(service.NewMatches(matches)); got != want {
			t.Errorf("%v: /v1/detect answered\n%s\nDetectLines\n%s", be, got, want)
		}

		if be != BackendPostings {
			continue
		}
		// The journal holds one line per kept name; a match adds its
		// imitated domain and source.
		dir := t.TempDir()
		zonePath := filepath.Join(dir, "zone.txt")
		if err := os.WriteFile(zonePath, []byte(zone), 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := zonewatch.New(zonewatch.Config{ZonePath: zonePath, StateDir: dir, Engine: engine.inner, DeadLetterPath: "-"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.ScanOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
		journal, err := os.ReadFile(filepath.Join(dir, "deltas.out"))
		if err != nil {
			t.Fatal(err)
		}
		entries := strings.Split(strings.TrimSuffix(string(journal), "\n"), "\n")
		var annotated, fromLines []string
		for _, e := range entries {
			if strings.Contains(e, "\t") {
				annotated = append(annotated, e)
			}
		}
		for _, m := range matches {
			fromLines = append(fromLines, m.FQDN+"\t"+m.Imitated()+"\t"+triage.SourceOf(m))
		}
		slices.Sort(annotated)
		if len(entries) != scanned || !slices.Equal(annotated, fromLines) {
			t.Errorf("journal has %d lines for %d kept, matches\n%q\nDetectLines\n%q", len(entries), scanned, annotated, fromLines)
		}
	}
}
