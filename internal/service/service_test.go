package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/confusables"
	"repro/internal/core"
	"repro/internal/fontgen"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/simchar"
	"repro/internal/snapshot"
	"repro/internal/ucd"
)

var (
	testDBOnce sync.Once
	testDBVal  *homoglyph.DB
)

func testDB(t testing.TB) *homoglyph.DB {
	t.Helper()
	testDBOnce.Do(func() {
		font := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
		sim, _ := simchar.Build(font, ucd.IDNASet(), simchar.Options{})
		testDBVal = homoglyph.New(confusables.Default(), sim, 0)
	})
	return testDBVal
}

func ace(t testing.TB, label string) string {
	t.Helper()
	a, err := punycode.ToASCIILabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func newTestServer(t testing.TB, refs []string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Engine = core.NewEngine(core.NewDetector(testDB(t), refs))
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t testing.TB, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	return resp
}

func detect(t testing.TB, ts *httptest.Server, body any) (detectResponse, *http.Response) {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/detect", body)
	var out detectResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("decoding %q: %v", data, err)
		}
	}
	return out, resp
}

func TestDetectSingleFQDN(t *testing.T) {
	_, ts := newTestServer(t, []string{"google", "facebook"}, Config{})
	probe := ace(t, "gооgle") + ".net" // Cyrillic о ×2
	out, resp := detect(t, ts, detectRequest{FQDN: probe})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Epoch != 1 || out.Queried != 1 || len(out.Matches) != 1 {
		t.Fatalf("unexpected response: %+v", out)
	}
	m := out.Matches[0]
	if m.FQDN != probe || m.Reference != "google" || m.Imitated != "google.net" || m.TLD != "net" {
		t.Fatalf("match = %+v", m)
	}
	if len(m.Diffs) != 2 || m.Diffs[0].Want != "o" || m.Diffs[0].Source == "" {
		t.Fatalf("diffs = %+v", m.Diffs)
	}
}

func TestDetectBatchSortedAndSingleEpoch(t *testing.T) {
	_, ts := newTestServer(t, []string{"google", "amazon"}, Config{})
	g := ace(t, "gооgle") + ".com"
	a := ace(t, "аmazon") + ".co.uk" // Cyrillic а
	out, _ := detect(t, ts, detectRequest{FQDNs: []string{g, "plain.com", a}})
	if out.Queried != 3 || len(out.Matches) != 2 {
		t.Fatalf("unexpected response: %+v", out)
	}
	// Deterministic batch order: sorted by FQDN ("xn--ggle..." before
	// "xn--mazon..."), regardless of request order.
	if !(out.Matches[0].FQDN < out.Matches[1].FQDN) {
		t.Fatalf("matches unsorted: %+v", out.Matches)
	}
	if out.Matches[0].Imitated != "google.com" || out.Matches[1].Imitated != "amazon.co.uk" {
		t.Fatalf("imitated = %q, %q", out.Matches[0].Imitated, out.Matches[1].Imitated)
	}
}

// TestDetectNormalizationAgreesWithCLI is the serve/detect-agreement
// regression: the HTTP handler must route queries through the exact
// NormalizeZoneLine rules the CLI feeder applies — trailing root dot
// dropped, ASCII uppercase folded (mixed-case ACE included), and
// whitespace trimmed — so the same name answers identically on both
// paths.
func TestDetectNormalizationAgreesWithCLI(t *testing.T) {
	_, ts := newTestServer(t, []string{"google"}, Config{})
	canonical := ace(t, "gооgle") + ".com"
	out, _ := detect(t, ts, detectRequest{FQDN: canonical})
	if len(out.Matches) != 1 {
		t.Fatalf("canonical query found %d matches", len(out.Matches))
	}
	want := out.Matches[0]

	for _, spelled := range []string{
		canonical + ".",                  // trailing root dot
		strings.ToUpper(canonical),       // uppercase query
		strings.ToUpper(canonical) + ".", // both
		"  " + canonical + "\t",          // surrounding whitespace
		"XN--ggle-55DA.CoM",              // mixed-case ACE
	} {
		out, _ := detect(t, ts, detectRequest{FQDN: spelled})
		if len(out.Matches) != 1 {
			t.Errorf("%q: %d matches, want 1", spelled, len(out.Matches))
			continue
		}
		got := out.Matches[0]
		if got.FQDN != want.FQDN || got.Reference != want.Reference || got.Imitated != want.Imitated {
			t.Errorf("%q: match %+v, want %+v (normalization disagreement)", spelled, got, want)
		}
	}

	// Plain-ASCII and blank queries are no-candidate shapes: zero
	// matches, not an error — the same verdict the feeder gate gives.
	for _, benign := range []string{"google.com", "GOOGLE.COM.", "   "} {
		out, resp := detect(t, ts, detectRequest{FQDN: benign})
		if resp.StatusCode != http.StatusOK || len(out.Matches) != 0 {
			t.Errorf("%q: status %d, %d matches", benign, resp.StatusCode, len(out.Matches))
		}
	}
}

func TestExplainWarnings(t *testing.T) {
	_, ts := newTestServer(t, []string{"google"}, Config{})
	probe := ace(t, "gооgle") + ".com"
	var out explainResponse
	resp := getJSON(t, ts.URL+"/v1/explain?fqdn="+url.QueryEscape(strings.ToUpper(probe)+"."), &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Matches) != 1 || len(out.Warnings) != 1 {
		t.Fatalf("response = %+v", out)
	}
	if !strings.Contains(out.Warnings[0], "google.com") {
		t.Fatalf("warning %q does not name the imitated domain", out.Warnings[0])
	}
}

func TestReloadInlineReferences(t *testing.T) {
	s, ts := newTestServer(t, []string{"google"}, Config{})
	probe := ace(t, "gооgle") + ".com"
	if out, _ := detect(t, ts, detectRequest{FQDN: probe}); len(out.Matches) != 1 {
		t.Fatal("probe should match before reload")
	}

	resp, data := postJSON(t, ts.URL+"/v1/reload", reloadRequest{References: []string{"paypal"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d: %s", resp.StatusCode, data)
	}
	var rl reloadResponse
	if err := json.Unmarshal(data, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Epoch != 2 || rl.References != 1 || rl.Source != "inline" {
		t.Fatalf("reload = %+v", rl)
	}
	out, _ := detect(t, ts, detectRequest{FQDN: probe})
	if len(out.Matches) != 0 || out.Epoch != 2 {
		t.Fatalf("post-reload: %+v", out)
	}
	if st := s.Stats(); st.Reloads != 1 || st.LastReload == "" {
		t.Fatalf("stats after reload: %+v", st)
	}
}

// TestReloadInlineDomainShapedReferences: inline references must
// reduce through the same registrable-label rules as a refs file, so
// "paypal.com" protects "paypal" instead of indexing an inert dotted
// literal — and a list that reduces to nothing is a 422, not a silent
// empty detector.
func TestReloadInlineDomainShapedReferences(t *testing.T) {
	_, ts := newTestServer(t, []string{"google"}, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/reload",
		reloadRequest{References: []string{"PayPal.com", "amazon.co.uk", "# comment", " "}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d: %s", resp.StatusCode, data)
	}
	var rl reloadResponse
	if err := json.Unmarshal(data, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.References != 2 {
		t.Fatalf("reload = %+v, want 2 registrable labels", rl)
	}
	probe := ace(t, "pаypal") + ".com" // Cyrillic а
	if out, _ := detect(t, ts, detectRequest{FQDN: probe}); len(out.Matches) != 1 {
		t.Fatalf("domain-shaped inline reference did not index its label: %+v", out)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/reload", reloadRequest{References: []string{"  ", "# x"}}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("all-blank references: status = %d, want 422", resp.StatusCode)
	}
}

func TestReloadRefsFile(t *testing.T) {
	_, ts := newTestServer(t, []string{"google"}, Config{})
	path := filepath.Join(t.TempDir(), "refs.txt")
	if err := os.WriteFile(path, []byte("paypal.com\nwikipedia.org\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/reload", reloadRequest{Refs: path})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d: %s", resp.StatusCode, data)
	}
	var rl reloadResponse
	if err := json.Unmarshal(data, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.References != 2 || rl.Source != "refs:"+path {
		t.Fatalf("reload = %+v", rl)
	}
	probe := ace(t, "pаypal") + ".com" // Cyrillic а
	if out, _ := detect(t, ts, detectRequest{FQDN: probe}); len(out.Matches) != 1 {
		t.Fatalf("new reference not live: %+v", out)
	}
}

func TestReloadSnapshotFile(t *testing.T) {
	s, ts := newTestServer(t, []string{"google"}, Config{})
	db := testDB(t)
	snapPath := filepath.Join(t.TempDir(), "b.snap")
	if err := snapshot.WriteFile(snapPath, db, core.NewDetector(db, []string{"wikipedia", "paypal"})); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/reload", reloadRequest{Snapshot: snapPath})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d: %s", resp.StatusCode, data)
	}
	var rl reloadResponse
	if err := json.Unmarshal(data, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Epoch != 2 || rl.References != 2 || rl.Source != "snapshot:"+snapPath {
		t.Fatalf("reload = %+v", rl)
	}
	if got := s.engine.Detector().NumReferences(); got != 2 {
		t.Fatalf("live references = %d", got)
	}
}

// TestReloadSnapshotRefsOverride: an explicit reference list POSTed
// alongside a snapshot overrides the snapshot's embedded detector —
// the same precedence `serve -snapshot -refs` applies at startup. The
// embedded set must never silently win over a list the operator named.
func TestReloadSnapshotRefsOverride(t *testing.T) {
	_, ts := newTestServer(t, []string{"google"}, Config{})
	db := testDB(t)
	snapPath := filepath.Join(t.TempDir(), "embedded.snap")
	if err := snapshot.WriteFile(snapPath, db, core.NewDetector(db, []string{"google", "facebook"})); err != nil {
		t.Fatal(err)
	}
	refsPath := filepath.Join(t.TempDir(), "refs.txt")
	if err := os.WriteFile(refsPath, []byte("paypal.com\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.URL+"/v1/reload", reloadRequest{Snapshot: snapPath, Refs: refsPath})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status = %d: %s", resp.StatusCode, data)
	}
	var rl reloadResponse
	if err := json.Unmarshal(data, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.References != 1 || rl.Source != "snapshot:"+snapPath+" refs:"+refsPath {
		t.Fatalf("reload = %+v: embedded detector won over the explicit list", rl)
	}
	probe := ace(t, "pаypal") + ".com"
	if out, _ := detect(t, ts, detectRequest{FQDN: probe}); len(out.Matches) != 1 {
		t.Fatalf("override list not live: %+v", out)
	}
	// Inline references override the embedded detector too.
	resp, data = postJSON(t, ts.URL+"/v1/reload",
		reloadRequest{Snapshot: snapPath, References: []string{"wikipedia.org"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline override status = %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.References != 1 || rl.Source != "snapshot:"+snapPath+" inline" {
		t.Fatalf("inline override = %+v", rl)
	}
	// An explicitly named refs file that parses to nothing is a 422,
	// not a silent fallback to the embedded set.
	emptyPath := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(emptyPath, []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/reload", reloadRequest{Snapshot: snapPath, Refs: emptyPath}); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("empty override list: status = %d, want 422", resp.StatusCode)
	}
}

func TestReloadSnapshotWithoutDetectorNeedsRefs(t *testing.T) {
	_, ts := newTestServer(t, []string{"google"}, Config{})
	db := testDB(t)
	snapPath := filepath.Join(t.TempDir(), "db-only.snap")
	if err := snapshot.WriteFile(snapPath, db, nil); err != nil {
		t.Fatal(err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/reload", reloadRequest{Snapshot: snapPath})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("detector-less snapshot: status = %d, want 422", resp.StatusCode)
	}
	// ... but the same snapshot plus inline references compiles fine.
	resp, data := postJSON(t, ts.URL+"/v1/reload",
		reloadRequest{Snapshot: snapPath, References: []string{"paypal"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot+references: status = %d: %s", resp.StatusCode, data)
	}
}

func TestReloadBadRequests(t *testing.T) {
	_, ts := newTestServer(t, []string{"google"}, Config{})
	for _, tc := range []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"no source", `{}`, http.StatusUnprocessableEntity},
		{"unknown field", `{"snapshots":"x"}`, http.StatusBadRequest},
		{"missing snapshot file", `{"snapshot":"/nonexistent.snap"}`, http.StatusUnprocessableEntity},
		{"missing refs file", `{"refs":"/nonexistent.txt"}`, http.StatusUnprocessableEntity},
	} {
		resp, err := http.Post(ts.URL+"/v1/reload", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestDetectBadRequests(t *testing.T) {
	s, ts := newTestServer(t, []string{"google"}, Config{MaxBatch: 2})
	for _, tc := range []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"no fqdn", `{}`},
		{"oversized batch", `{"fqdns":["a.com","b.com","c.com"]}`},
		{"wrong type", `{"fqdn":5}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.BadInput != 4 {
		t.Errorf("bad_input = %d, want 4", st.BadInput)
	}
	// GET on a POST route must 405, not detect.
	resp, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/detect: status = %d, want 405", resp.StatusCode)
	}
}

// TestOverloadSheds pins the bounded-concurrency contract: with the
// gate full, a detect request is refused immediately with 503 +
// Retry-After instead of queueing, and the shed counter records it.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, []string{"google"}, Config{MaxInFlight: 1})
	s.sem <- struct{}{} // occupy the only slot
	resp, _ := postJSON(t, ts.URL+"/v1/detect", detectRequest{FQDN: "x.com"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("no Retry-After header")
	}
	// Health and metrics bypass the gate: an overloaded server still
	// answers its monitor.
	var h healthResponse
	if resp := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz under overload: %d %+v", resp.StatusCode, h)
	}
	<-s.sem
	if out, _ := detect(t, ts, detectRequest{FQDN: "x.com"}); out.Epoch != 1 {
		t.Fatal("request after release failed")
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, []string{"google", "facebook"}, Config{})
	var h healthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Epoch != 1 || h.References != 2 {
		t.Fatalf("healthz = %+v", h)
	}
	probe := ace(t, "gооgle") + ".com"
	for i := 0; i < 10; i++ {
		detect(t, ts, detectRequest{FQDN: probe})
	}
	var st Stats
	getJSON(t, ts.URL+"/metrics", &st)
	if st.Epoch != 1 || st.References != 2 || st.Requests != 10 || st.Domains != 10 || st.Matches != 10 {
		t.Fatalf("metrics = %+v", st)
	}
	if st.P50Ns == 0 || st.P99Ns < st.P50Ns || st.QPS <= 0 {
		t.Fatalf("latency counters not populated: %+v", st)
	}
}

// logCapture collects Logf lines so tests can synchronize on watcher
// lifecycle events instead of sleeping.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (lc *logCapture) logf(f string, a ...any) {
	lc.mu.Lock()
	fmt.Fprintf(&lc.buf, f+"\n", a...)
	lc.mu.Unlock()
}

func (lc *logCapture) wait(t *testing.T, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		lc.mu.Lock()
		ok := strings.Contains(lc.buf.String(), substr)
		lc.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("log line %q never appeared", substr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestWatchSnapshotHotSwaps(t *testing.T) {
	var lc logCapture
	s, _ := newTestServer(t, []string{"google"}, Config{Logf: lc.logf})
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := snapshot.WriteFile(path, db, core.NewDetector(db, []string{"google"})); err != nil {
		t.Fatal(err)
	}
	// The baseline is the served artifact's own mtime, captured before
	// the watcher starts — a rename landing in that window is detected,
	// not mistaken for already-served state.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.WatchSnapshot(ctx, WatchConfig{Path: path, Interval: 5 * time.Millisecond, Loaded: st.ModTime()})
	}()
	lc.wait(t, "watch: polling")

	// Overwrite the artifact the way a compile cron would: atomic
	// rename via WriteFile. The watcher must pick it up and swap.
	if err := snapshot.WriteFile(path, db, core.NewDetector(db, []string{"paypal", "wikipedia"})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.engine.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never swapped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.engine.Detector().NumReferences(); got != 2 {
		t.Fatalf("live references = %d, want 2", got)
	}
	if st := s.Stats(); st.Reloads != 1 {
		t.Fatalf("reloads = %d, want 1", st.Reloads)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop on ctx cancel")
	}
}

// TestWatchSnapshotPinsOverrideRefs: when the operator started with an
// explicit reference list (-refs over a snapshot), an artifact
// rollover must rebuild over the new snapshot's DB with THAT list —
// never silently fall back to the artifact's embedded detector.
func TestWatchSnapshotPinsOverrideRefs(t *testing.T) {
	var lc logCapture
	s, _ := newTestServer(t, []string{"paypal"}, Config{Logf: lc.logf})
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := snapshot.WriteFile(path, db, core.NewDetector(db, []string{"google"})); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchSnapshot(ctx, WatchConfig{
		Path:         path,
		Interval:     5 * time.Millisecond,
		Loaded:       st.ModTime(),
		OverrideRefs: []string{"paypal"},
	})
	lc.wait(t, "watch: polling")

	// Rotate to an artifact embedding a different (larger) set.
	if err := snapshot.WriteFile(path, db, core.NewDetector(db, []string{"google", "facebook"})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.engine.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never swapped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	refs := s.engine.Detector().References()
	if len(refs) != 1 || refs[0] != "paypal" {
		t.Fatalf("post-rollover references = %v: embedded set replaced the pinned override", refs)
	}
}

// TestWatchSnapshotSurvivesCorruptFile: a bad artifact must never take
// down the serving state — the watcher logs and keeps the old epoch.
func TestWatchSnapshotSurvivesCorruptFile(t *testing.T) {
	var lc logCapture
	db := testDB(t)
	engine := core.NewEngine(core.NewDetector(db, []string{"google"}))
	s := New(Config{Engine: engine, Logf: lc.logf})
	path := filepath.Join(t.TempDir(), "live.snap")
	if err := snapshot.WriteFile(path, db, core.NewDetector(db, []string{"google"})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Zero Loaded baseline: stat at start.
	go s.WatchSnapshot(ctx, WatchConfig{Path: path, Interval: 5 * time.Millisecond})
	lc.wait(t, "watch: polling")

	if err := os.WriteFile(path, []byte("garbage, not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	lc.wait(t, "keeping epoch")
	if ep := s.engine.Epoch(); ep != 1 {
		t.Fatalf("epoch = %d after corrupt artifact, want 1", ep)
	}
}

// TestWatchSnapshotStatErrorStreak: a path that stops stat-ing is an
// outage, not background noise — the watcher counts every failed poll
// in watch_errors, logs once per streak (not once per tick), and
// recovers in place when the artifact reappears.
func TestWatchSnapshotStatErrorStreak(t *testing.T) {
	var lc logCapture
	s, _ := newTestServer(t, []string{"google"}, Config{Logf: lc.logf})
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "live.snap")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// 1ms interval: the 16× backoff cap keeps even a long failure
		// streak polling every ≤16ms, so the test stays fast.
		s.WatchSnapshot(ctx, WatchConfig{Path: path, Interval: time.Millisecond})
	}()
	lc.wait(t, "watch: stat")

	// Let the streak run: errors accumulate, the log line does not.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().WatchErrors < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("watch_errors stuck at %d", s.Stats().WatchErrors)
		}
		time.Sleep(2 * time.Millisecond)
	}
	lc.mu.Lock()
	statLines := strings.Count(lc.buf.String(), "watch: stat")
	lc.mu.Unlock()
	if statLines != 1 {
		t.Fatalf("streak of ≥5 failures logged %d stat lines, want 1", statLines)
	}

	// The artifact appears; the watcher must announce recovery and then
	// complete a real swap off the newly visible file.
	if err := snapshot.WriteFile(path, db, core.NewDetector(db, []string{"paypal"})); err != nil {
		t.Fatal(err)
	}
	lc.wait(t, "visible again after")
	deadline = time.Now().Add(10 * time.Second)
	for s.engine.Epoch() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never swapped after recovery")
		}
		time.Sleep(2 * time.Millisecond)
	}
	errs := s.Stats().WatchErrors
	time.Sleep(20 * time.Millisecond)
	if got := s.Stats().WatchErrors; got != errs {
		t.Fatalf("watch_errors still growing after recovery: %d -> %d", errs, got)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop on ctx cancel")
	}
}

// TestWatchSnapshotStopsDuringBackoff: ctx cancellation must interrupt
// a widened (backoff) sleep promptly, not wait the delay out.
func TestWatchSnapshotStopsDuringBackoff(t *testing.T) {
	s, _ := newTestServer(t, []string{"google"}, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.WatchSnapshot(ctx, WatchConfig{
			Path:     filepath.Join(t.TempDir(), "never-exists.snap"),
			Interval: time.Hour, // backoff delays would be hours
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WatchSnapshot did not exit promptly during backoff sleep")
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	s, _ := newTestServer(t, []string{"google"}, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String() + "/healthz"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after ctx cancel")
	}
}

// TestMatchEncodingShape pins the shared wire format the CLI's -json
// flag and the HTTP responses both emit.
func TestMatchEncodingShape(t *testing.T) {
	det := core.NewDetector(testDB(t), []string{"google"})
	ms := det.DetectDomainBackend(ace(t, "gооgle")+".co.uk", core.BackendPostings)
	if len(ms) != 1 {
		t.Fatalf("fixture: %d matches", len(ms))
	}
	raw, err := json.Marshal(NewMatch(ms[0]))
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fqdn", "idn", "unicode", "reference", "imitated", "tld", "diffs"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("wire match missing %q: %s", key, raw)
		}
	}
	if decoded["imitated"] != "google.co.uk" || decoded["tld"] != "co.uk" {
		t.Errorf("wire match = %s", raw)
	}
	diffs := decoded["diffs"].([]any)
	d0 := diffs[0].(map[string]any)
	for _, key := range []string{"pos", "got", "want", "source"} {
		if _, ok := d0[key]; !ok {
			t.Errorf("wire diff missing %q: %s", key, raw)
		}
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty hist p50 = %d", got)
	}
	// 90 fast observations (~1µs) and 10 slow (~1ms): p50 reports the
	// fast bucket's ceiling, p99 the slow one's.
	for i := 0; i < 90; i++ {
		h.observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(time.Millisecond)
	}
	p50, p99 := h.quantile(0.5), h.quantile(0.99)
	if p50 < 1000 || p50 > 4096 {
		t.Errorf("p50 = %dns, want ~1-2µs bucket", p50)
	}
	if p99 < 1000000 || p99 > 4194304 {
		t.Errorf("p99 = %dns, want ~1-2ms bucket", p99)
	}
	// Far-overflow observations land in the last bucket, not panic.
	h.observe(20 * time.Minute)
	if got := h.quantile(1.0); got != 1<<39 {
		t.Errorf("overflow bucket ceiling = %d", got)
	}
}
