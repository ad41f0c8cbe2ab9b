package jobstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/triage"
)

func testManifest(id string) Manifest {
	retries := 2
	return Manifest{
		ID:       id,
		State:    StateAccepted,
		Epoch:    7,
		Queried:  3,
		Detected: 2,
		Spec: triage.Spec{
			Resolver:   "127.0.0.1:5353",
			DNSWorkers: 4,
			Rate:       10,
			Retries:    &retries,
			SkipWeb:    true,
		},
		Inputs: []triage.Input{
			{FQDN: "xn--ggle-0nda.com", Reference: "google.com", Source: "UC"},
			{FQDN: "xn--facebok-y0a.com", Reference: "facebook.com", Source: "SimChar"},
		},
		JournalPath: "/tmp/deltas.log",
		JournalFrom: 100,
		JournalTo:   240,
	}
}

func TestManifestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(s.NewID())
	if err := s.Put(m); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(m.ID)
	if !ok {
		t.Fatal("Get missed a just-Put manifest")
	}
	if got.CreatedUnix == 0 || got.UpdatedUnix == 0 {
		t.Fatal("Put did not stamp timestamps")
	}
	// A fresh Store over the same dir recovers it identically.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Recover(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 0 || len(res.Finished) != 0 || len(res.Active) != 1 {
		t.Fatalf("Recover = %+v, want one active job", res)
	}
	r := res.Active[0]
	if r.ID != m.ID || r.State != StateAccepted || r.Epoch != 7 ||
		len(r.Inputs) != 2 || r.Inputs[1].Reference != "facebook.com" ||
		r.Spec.Retries == nil || *r.Spec.Retries != 2 || !r.Spec.SkipWeb ||
		r.JournalTo != 240 {
		t.Fatalf("recovered manifest diverged: %+v", r)
	}
}

func TestUnmarshalManifestRejectsBadState(t *testing.T) {
	m := testManifest("j1")
	m.State = "limbo"
	data, err := MarshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalManifest(data); err == nil || !strings.Contains(err.Error(), "limbo") {
		t.Fatalf("unknown state accepted: %v", err)
	}
}

func TestRecoverQuarantinesCorruptManifests(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := testManifest(s.NewID())
	good.State = StateDone
	if err := s.Put(good); err != nil {
		t.Fatal(err)
	}
	bad := testManifest(s.NewID())
	if err := s.Put(bad); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the bad manifest and leave a record
	// log beside it: quarantine must keep both for the operator.
	path := filepath.Join(dir, bad.ID, "manifest.job")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.RecordsPath(bad.ID), []byte("{\"fqdn\":\"a\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.Recover(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", res.Quarantined)
	}
	if len(res.Finished) != 1 || res.Finished[0].ID != good.ID {
		t.Fatalf("Finished = %+v, want just %s", res.Finished, good.ID)
	}
	if _, ok := s2.Get(bad.ID); ok {
		t.Fatal("corrupt job still visible after quarantine")
	}
	qrec := filepath.Join(dir, "quarantine", bad.ID, "records.jsonl")
	if _, err := os.Stat(qrec); err != nil {
		t.Fatalf("quarantined record log missing: %v", err)
	}
	// A second corrupt job with a recycled directory name must not
	// overwrite the first quarantined copy.
	if err := os.MkdirAll(filepath.Join(dir, bad.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bad.ID, "manifest.job"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res3, err := s3.Recover(t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Quarantined != 1 {
		t.Fatalf("second Recover quarantined %d, want 1", res3.Quarantined)
	}
	if _, err := os.Stat(qrec); err != nil {
		t.Fatalf("first quarantined copy clobbered: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", bad.ID+".2")); err != nil {
		t.Fatalf("second quarantined copy missing: %v", err)
	}
}

func TestNewIDMonotonicAcrossReopenAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if id := s.NewID(); id != "j1" {
		t.Fatalf("first id = %s", id)
	}
	m := testManifest(s.NewID()) // j2
	if err := s.Put(m); err != nil {
		t.Fatal(err)
	}
	// Corrupt j2 so it lands in quarantine, then reopen: j2 must still
	// never be reissued.
	if err := os.WriteFile(filepath.Join(dir, m.ID, "manifest.job"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recover(t.Logf); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if id := s3.NewID(); id != "j3" {
		t.Fatalf("id after reopen = %s, want j3 (j2 is quarantined, not free)", id)
	}
}

func TestPrepareResumeTrimsTornTail(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := s.NewID()
	recs := []triage.Record{
		{FQDN: "a.example", HasNS: true},
		{FQDN: "b.example", HasA: true},
	}
	f, err := s.OpenRecordsAppend(id)
	if err != nil {
		t.Fatal(err)
	}
	w := triage.NewRecordWriter(f)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: a torn third record with no newline.
	if _, err := f.WriteString(`{"fqdn":"c.exam`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resume, err := s.PrepareResume(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(resume) != 2 {
		t.Fatalf("resume set has %d records, want 2", len(resume))
	}
	if _, ok := resume["b.example"]; !ok {
		t.Fatal("complete record b.example missing from resume set")
	}
	data, err := os.ReadFile(s.RecordsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "\n") || strings.Contains(string(data), "c.exam") {
		t.Fatalf("torn tail survived PrepareResume: %q", data)
	}
	// No record log at all is a clean empty resume, not an error.
	if m, err := s.PrepareResume("j999"); err != nil || len(m) != 0 {
		t.Fatalf("missing log: %v, %v", m, err)
	}
}

// TestTrimTornTailKeepsLogOnReadError: PrepareResume's trim must pass a
// read error up and leave the record log as it was — truncating on a
// failed read would throw away every completed record.
func TestTrimTornTailKeepsLogOnReadError(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := s.NewID()
	path := s.RecordsPath(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	const log = "{\"fqdn\":\"a.example\"}\n{\"fqdn\":\"b.exam"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	// A write-only handle can stat and truncate but not read.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trimTornTail(f); err == nil || !strings.Contains(err.Error(), "reading record log") {
		t.Fatalf("trimTornTail on an unreadable log = %v, want a read error", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != log {
		t.Fatalf("record log after a failed trim = %q, %v; want it untouched", data, err)
	}
}

func TestRemoveAndMaxJournalTo(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testManifest(s.NewID())
	a.JournalTo = 240
	b := testManifest(s.NewID())
	b.JournalFrom, b.JournalTo = 240, 512
	c := testManifest(s.NewID())
	c.JournalPath, c.JournalTo = "/elsewhere.log", 9999
	for _, m := range []Manifest{a, b, c} {
		if err := s.Put(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MaxJournalTo("/tmp/deltas.log"); got != 512 {
		t.Fatalf("MaxJournalTo = %d, want 512", got)
	}
	if got := s.MaxJournalTo("/nowhere.log"); got != 0 {
		t.Fatalf("MaxJournalTo for uncovered journal = %d, want 0", got)
	}
	if err := s.Remove(b.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.MaxJournalTo("/tmp/deltas.log"); got != 240 {
		t.Fatalf("MaxJournalTo after Remove = %d, want 240", got)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), b.ID)); !os.IsNotExist(err) {
		t.Fatalf("Remove left the job directory: %v", err)
	}
	if got := s.List(); len(got) != 2 || got[0].ID != a.ID || got[1].ID != c.ID {
		t.Fatalf("List after Remove = %+v", got)
	}
}

func TestLoadRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id := s.NewID()
	f, err := s.OpenRecordsAppend(id)
	if err != nil {
		t.Fatal(err)
	}
	w := triage.NewRecordWriter(f)
	if err := w.Write(triage.Record{FQDN: "a.example"}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := s.LoadRecords(id)
	if err != nil || len(recs) != 1 || recs[0].FQDN != "a.example" {
		t.Fatalf("LoadRecords = %+v, %v", recs, err)
	}
	if recs, err := s.LoadRecords("j404"); err != nil || recs != nil {
		t.Fatalf("LoadRecords on missing job = %+v, %v", recs, err)
	}
}

// TestManifestSpecBytesStable: a manifest with every spec field set, in
// the bytes earlier releases wrote, decodes and re-encodes unchanged,
// so a job accepted before an upgrade resumes with the same spec and
// rewrites the same manifest. The explicit "retries":0 must survive.
func TestManifestSpecBytesStable(t *testing.T) {
	const written = `{"id":"j7","state":"running","epoch":3,"queried":5,"detected":2,` +
		`"spec":{"resolver":"127.0.0.1:5353","dns_transport":"dot","backend":"skeleton",` +
		`"dns_workers":4,"web_workers":8,"rate":2.5,"retries":0,"stage_timeout_ms":9000,` +
		`"dns_timeout_ms":1500,"web_timeout_ms":2500,"skip_dns":true,"skip_web":true,"skip_blacklist":true},` +
		`"inputs":[{"FQDN":"xn--ggle-55da.com","Reference":"google.com","Source":"UC"}],` +
		`"journal_path":"deltas.out","journal_from":10,"journal_to":20,"resumes":1,` +
		`"created_unix":1700000000,"updated_unix":1700000001}`
	var m Manifest
	if err := json.Unmarshal([]byte(written), &m); err != nil {
		t.Fatal(err)
	}
	if m.Spec.Retries == nil || *m.Spec.Retries != 0 {
		t.Fatalf("retries = %v, want an explicit 0", m.Spec.Retries)
	}
	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != written {
		t.Fatalf("re-encoded\n%s\nwant\n%s", got, written)
	}
}
