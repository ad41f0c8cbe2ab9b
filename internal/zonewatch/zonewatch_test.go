package zonewatch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/confusables"
	"repro/internal/core"
	"repro/internal/fontgen"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/simchar"
	"repro/internal/snapshot"
	"repro/internal/triage"
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

func testEngine(t testing.TB, refs ...string) *core.Engine {
	t.Helper()
	if len(refs) == 0 {
		refs = []string{"google", "facebook"}
	}
	return core.NewEngine(core.NewDetector(testDB(t), refs))
}

func ace(t testing.TB, label string) string {
	t.Helper()
	a, err := punycode.ToASCIILabel(label)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func writeZone(t testing.TB, path string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// deltaNames reads the deltas file and returns the first field of each
// line, in order.
func deltaNames(t testing.TB, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		names = append(names, strings.SplitN(line, "\t", 2)[0])
	}
	return names
}

func assertNoDuplicates(t testing.TB, names []string) {
	t.Helper()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate delta emission: %q", n)
		}
		seen[n] = true
	}
}

func newTestWatcher(t testing.TB, dir string, mutate ...func(*Config)) *Watcher {
	t.Helper()
	cfg := Config{
		ZonePath: filepath.Join(dir, "zone.txt"),
		StateDir: filepath.Join(dir, "state"),
		Engine:   testEngine(t),
	}
	for _, m := range mutate {
		m(&cfg)
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSeenSetMergeAndContains(t *testing.T) {
	s := newSeenSet([]uint64{10, 20, 30})
	for _, h := range []uint64{10, 30} {
		if !s.contains(h) {
			t.Fatalf("base hash %d not found", h)
		}
	}
	if s.addHash(20) {
		t.Fatal("addHash re-added a base hash")
	}
	if !s.addHash(25) || !s.addHash(5) || !s.addHash(35) {
		t.Fatal("addHash refused new hashes")
	}
	if s.addHash(25) {
		t.Fatal("addHash re-added a session hash")
	}
	got := s.merged()
	want := []uint64{5, 10, 20, 25, 30, 35}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "watch.ckpt")
	c := checkpoint{
		Complete:     true,
		ZoneSize:     1 << 40,
		ZoneOff:      123456789,
		PrefixCRC:    0xDEADBEEF,
		ScanStartOut: 42,
		OutOff:       99,
		Emitted:      7,
	}
	if err := writeCheckpointFile(path, c); err != nil {
		t.Fatal(err)
	}
	got, ok, err := readCheckpointFile(path)
	if err != nil || !ok {
		t.Fatalf("read = (%v, %v)", ok, err)
	}
	if got != c {
		t.Fatalf("round trip = %+v, want %+v", got, c)
	}

	// Missing file: ok=false, no error.
	if _, ok, err := readCheckpointFile(path + ".nope"); ok || err != nil {
		t.Fatalf("missing checkpoint = (%v, %v)", ok, err)
	}

	// Corruption: flipped bit must be rejected, not misread.
	data, _ := os.ReadFile(path)
	data[len(data)-7] ^= 0x40
	os.WriteFile(path, data, 0o644)
	if _, ok, err := readCheckpointFile(path); ok || err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// FuzzUnmarshalCheckpoint: any input — taken raw, and sealed as a
// SHAMCKPT payload so the field decoder sees it past the checksum — is
// either rejected or re-marshals byte-identically.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, snapshot.SealEnvelope(ckptMagic, ckptVersion, data)} {
			c, err := unmarshalCheckpoint(in)
			if err != nil {
				continue
			}
			if out := c.marshal(); !bytes.Equal(out, in) {
				t.Fatalf("unmarshalCheckpoint(%q) = %+v, re-marshals to %q", in, c, out)
			}
		}
	})
}

func TestQueueDropsOldestWhenFull(t *testing.T) {
	q := newSubmitQueue(3)
	for i := 0; i < 5; i++ {
		q.push(triage.Input{FQDN: fmt.Sprintf("d%d.com", i)})
	}
	if got := q.dropped.Load(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	var got []string
	for {
		in, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, in.FQDN)
	}
	if strings.Join(got, " ") != "d2.com d3.com d4.com" {
		t.Fatalf("queue kept %v, want the 3 newest", got)
	}
}

func TestScanEmitsOnlyNewCandidates(t *testing.T) {
	dir := t.TempDir()
	w := newTestWatcher(t, dir)
	homograph := ace(t, "gооgle") + ".com"

	writeZone(t, w.cfg.ZonePath,
		"plain0.example",                           // ASCII, not a candidate: never emitted
		"xn--name0001.example",                     // candidate
		"XN--NAME0002.EXAMPLE.",                    // uppercase + root dot: normalizes
		"xn--rec3.example. 300 IN NS ns1.example.", // master-file record: owner field only
		homograph, // detects against "google"
		"; a comment line",
	)
	st, err := w.ScanOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.UpToDate || st.Resumed {
		t.Fatalf("first scan stats = %+v", st)
	}
	if st.Added != 4 || st.Detected != 1 {
		t.Fatalf("added=%d detected=%d, want 4/1", st.Added, st.Detected)
	}
	names := deltaNames(t, w.deltasPath())
	want := []string{"xn--name0001.example", "xn--name0002.example", "xn--rec3.example", homograph}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("deltas = %v, want %v", names, want)
	}
	// The detected line carries reference and attribution columns.
	data, _ := os.ReadFile(w.deltasPath())
	var matched string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, homograph+"\t") {
			matched = line
		}
	}
	if fields := strings.Split(matched, "\t"); len(fields) != 3 || fields[1] != "google.com" {
		t.Fatalf("detected delta line = %q", matched)
	}

	// Same zone again: the completion checkpoint proves it.
	st, err = w.ScanOnce(context.Background())
	if err != nil || !st.UpToDate {
		t.Fatalf("rescan = (%+v, %v), want up-to-date", st, err)
	}

	// A fresh process over the same state dir agrees.
	w2 := newTestWatcher(t, dir)
	st, err = w2.ScanOnce(context.Background())
	if err != nil || !st.UpToDate {
		t.Fatalf("fresh-process rescan = (%+v, %v), want up-to-date", st, err)
	}

	// Next generation: previous names (even respelled in upper case)
	// emit nothing; only the genuinely new name appears.
	writeZone(t, w2.cfg.ZonePath,
		"xn--name0001.example",
		"xn--name0002.example",
		"XN--REC3.EXAMPLE.",
		homograph,
		"xn--fresh.example",
	)
	st, err = w2.ScanOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 1 {
		t.Fatalf("second generation added = %d, want 1", st.Added)
	}
	names = deltaNames(t, w2.deltasPath())
	assertNoDuplicates(t, names)
	if names[len(names)-1] != "xn--fresh.example" {
		t.Fatalf("deltas tail = %v", names)
	}
}

// abortCtx cancels itself after a fixed number of Err() polls — a
// deterministic stand-in for SIGKILL hitting the scan loop mid-zone
// (the scanner aborts cold: no flush, no checkpoint).
type abortCtx struct {
	context.Context
	budget int32
	polls  atomic.Int32
}

func (c *abortCtx) Err() error {
	if c.polls.Add(1) > c.budget {
		return context.Canceled
	}
	return nil
}

func bigZoneLines(n int) []string {
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("xn--host%05d.example", i))
	}
	return lines
}

func TestKillResumeByteIdentical(t *testing.T) {
	lines := bigZoneLines(3000)

	// Golden: one uninterrupted scan.
	goldDir := t.TempDir()
	gold := newTestWatcher(t, goldDir)
	writeZone(t, gold.cfg.ZonePath, lines...)
	if _, err := gold.ScanOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	goldBytes, err := os.ReadFile(gold.deltasPath())
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: kill the scan cold several times mid-zone, resuming
	// with a fresh watcher (fresh process state) each time.
	crashDir := t.TempDir()
	mkWatcher := func() *Watcher {
		return newTestWatcher(t, crashDir, func(c *Config) { c.CheckpointEvery = 100 })
	}
	w := mkWatcher()
	writeZone(t, w.cfg.ZonePath, lines...)
	kills := 0
	for budget := int32(2); ; budget += 2 {
		st, err := w.ScanOnce(&abortCtx{Context: context.Background(), budget: budget})
		if err == nil {
			if kills < 2 {
				t.Fatalf("scan finished after only %d kills; raise zone size", kills)
			}
			if !st.Resumed {
				t.Fatal("final scan did not resume from a checkpoint")
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		kills++
		w = mkWatcher()
	}

	crashBytes, err := os.ReadFile(w.deltasPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(goldBytes, crashBytes) {
		t.Fatalf("kill-resume deltas differ from uninterrupted run: %d vs %d bytes (%d kills)",
			len(crashBytes), len(goldBytes), kills)
	}

	// And the interrupted state dir converges: one more scan is a no-op.
	st, err := mkWatcher().ScanOnce(context.Background())
	if err != nil || !st.UpToDate {
		t.Fatalf("post-recovery rescan = (%+v, %v), want up-to-date", st, err)
	}
}

func TestCompletionIsIdempotent(t *testing.T) {
	// Reconstruct the crash window between the final active checkpoint
	// and the seen-set merge: deltas fully written, checkpoint at EOF,
	// no seen.set. The next scan must redo the merge without re-reading
	// names or re-emitting a byte.
	dir := t.TempDir()
	w := newTestWatcher(t, dir)
	writeZone(t, w.cfg.ZonePath, "xn--aa.example", "xn--bb.example")
	zoneBytes, _ := os.ReadFile(w.cfg.ZonePath)
	deltas := "xn--aa.example\nxn--bb.example\n"
	if err := os.WriteFile(w.deltasPath(), []byte(deltas), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpointFile(w.ckptPath(), checkpoint{
		ZoneSize:     int64(len(zoneBytes)),
		ZoneOff:      int64(len(zoneBytes)),
		PrefixCRC:    crc32.ChecksumIEEE(zoneBytes),
		ScanStartOut: 0,
		OutOff:       int64(len(deltas)),
		Emitted:      2,
	}); err != nil {
		t.Fatal(err)
	}

	st, err := w.ScanOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Lines != 0 || st.Added != 0 {
		t.Fatalf("completion replay scanned lines=%d added=%d, want 0/0", st.Lines, st.Added)
	}
	got, _ := os.ReadFile(w.deltasPath())
	if string(got) != deltas {
		t.Fatalf("deltas changed during completion replay: %q", got)
	}
	hashes, err := snapshot.ReadSeenSetFile(w.seenPath())
	if err != nil || len(hashes) != 2 {
		t.Fatalf("seen-set after replay = (%d entries, %v), want 2", len(hashes), err)
	}
	if st, err := w.ScanOnce(context.Background()); err != nil || !st.UpToDate {
		t.Fatalf("rescan = (%+v, %v), want up-to-date", st, err)
	}
}

func TestCorruptSeenSetRefusedThenRecovered(t *testing.T) {
	dir := t.TempDir()
	w := newTestWatcher(t, dir)
	writeZone(t, w.cfg.ZonePath, "xn--aa.example", "xn--bb.example")
	if _, err := w.ScanOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	healthy, err := os.ReadFile(w.seenPath())
	if err != nil {
		t.Fatal(err)
	}
	deltasBefore, _ := os.ReadFile(w.deltasPath())

	// Corrupt the durable set; a fresh process must refuse to scan —
	// silently re-emitting the whole zone is the one forbidden failure.
	bad := append([]byte(nil), healthy...)
	bad[len(bad)/2] ^= 0x01
	os.WriteFile(w.seenPath(), bad, 0o644)

	w2 := newTestWatcher(t, dir)
	if _, err := w2.ScanOnce(context.Background()); !errors.Is(err, ErrSeenSet) {
		t.Fatalf("scan over corrupt seen-set = %v, want ErrSeenSet", err)
	}
	if after, _ := os.ReadFile(w2.deltasPath()); !bytes.Equal(after, deltasBefore) {
		t.Fatal("refused scan still touched the deltas file")
	}

	// Operator restores the file: the same watcher recovers in place.
	os.WriteFile(w2.seenPath(), healthy, 0o644)
	writeZone(t, w2.cfg.ZonePath, "xn--aa.example", "xn--bb.example", "xn--cc.example")
	st, err := w2.ScanOnce(context.Background())
	if err != nil || st.Added != 1 {
		t.Fatalf("post-restore scan = (%+v, %v), want 1 addition", st, err)
	}
	assertNoDuplicates(t, deltaNames(t, w2.deltasPath()))
}

func TestTruncatedZoneRefused(t *testing.T) {
	dir := t.TempDir()
	w := newTestWatcher(t, dir)
	writeZone(t, w.cfg.ZonePath, bigZoneLines(100)...)
	if _, err := w.ScanOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A 10%-sized drop is a truncated upload, not a delta. A fresh
	// process must infer the guard from the checkpoint alone.
	writeZone(t, w.cfg.ZonePath, bigZoneLines(10)...)
	w2 := newTestWatcher(t, dir)
	if _, err := w2.ScanOnce(context.Background()); !errors.Is(err, ErrZoneTruncated) {
		t.Fatalf("truncated zone scan = %v, want ErrZoneTruncated", err)
	}

	// The real drop lands: scanning resumes, no duplicates.
	writeZone(t, w2.cfg.ZonePath, bigZoneLines(110)...)
	st, err := w2.ScanOnce(context.Background())
	if err != nil || st.Added != 10 {
		t.Fatalf("recovered scan = (%+v, %v), want 10 additions", st, err)
	}
	assertNoDuplicates(t, deltaNames(t, w2.deltasPath()))
}

func TestZoneRollbackEmitsNothing(t *testing.T) {
	dir := t.TempDir()
	w := newTestWatcher(t, dir)
	v1 := bigZoneLines(80)
	writeZone(t, w.cfg.ZonePath, v1...)
	if _, err := w.ScanOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	writeZone(t, w.cfg.ZonePath, bigZoneLines(100)...)
	if _, err := w.ScanOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(w.deltasPath())

	// The registry republishes yesterday's zone: every name is already
	// seen, so the scan completes with zero emissions.
	writeZone(t, w.cfg.ZonePath, v1...)
	st, err := w.ScanOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 0 {
		t.Fatalf("rollback scan added %d names", st.Added)
	}
	if after, _ := os.ReadFile(w.deltasPath()); !bytes.Equal(before, after) {
		t.Fatal("rollback scan modified the deltas file")
	}
}

func TestCorruptCheckpointRecoversWithoutDuplicates(t *testing.T) {
	dir := t.TempDir()
	w := newTestWatcher(t, dir)
	writeZone(t, w.cfg.ZonePath, bigZoneLines(50)...)
	if _, err := w.ScanOnce(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Scribble the checkpoint. The journal and seen-set are intact, so
	// a fresh process falls back to a conservative full rescan that
	// emits only the genuinely new names.
	if err := os.WriteFile(w.ckptPath(), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	writeZone(t, w.cfg.ZonePath, bigZoneLines(60)...)
	var logged bool
	w2 := newTestWatcher(t, dir, func(c *Config) {
		c.Logf = func(string, ...any) { logged = true }
	})
	st, err := w2.ScanOnce(context.Background())
	if err != nil || st.Added != 10 {
		t.Fatalf("scan after checkpoint loss = (%+v, %v), want 10 additions", st, err)
	}
	if !logged {
		t.Error("discarded checkpoint was not logged")
	}
	names := deltaNames(t, w2.deltasPath())
	assertNoDuplicates(t, names)
	if len(names) != 60 {
		t.Fatalf("total deltas = %d, want 60", len(names))
	}
}
