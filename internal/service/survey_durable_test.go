package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/jobstore"
	"repro/internal/triage"
)

// durableDNS stands up a deterministic zone: d00..d07.com, the even
// ones delegated with an A record, the odd ones absent (NXDOMAIN).
// Deterministic answers are what make the crash-resume byte-identity
// assertions meaningful.
func durableDNS(t *testing.T) string {
	t.Helper()
	store := dnsserver.NewStore()
	store.AddApex("com.")
	store.Add(dnswire.Record{Name: "com.", Class: dnswire.ClassIN, TTL: 900, Data: dnswire.SOA{
		MName: "a.gtld-servers.net.", RName: "nstld.example.",
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}})
	for i := 0; i < 8; i += 2 {
		name := fmt.Sprintf("d%02d.com.", i)
		store.Add(dnswire.Record{Name: name, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NS{Host: "ns1." + name}})
		store.Add(dnswire.Record{Name: name, Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("127.0.0.1")}})
	}
	dns := dnsserver.NewServer(store)
	if err := dns.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dns.Close() })
	return dns.Addr()
}

// newDurableServer builds a Server over a jobstore rooted at dir and
// runs the restart path (RecoverSurveys) before serving, the way
// `serve -job-dir` does.
func newDurableServer(t *testing.T, dir string, mutate ...func(*SurveyConfig)) (*Server, *httptest.Server, *jobstore.Store) {
	t.Helper()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SurveyConfig{Store: store}
	for _, m := range mutate {
		m(&cfg)
	}
	engine := core.NewEngine(core.NewDetector(testDB(t), []string{"google", "facebook"}))
	s := New(Config{Engine: engine, Survey: cfg})
	if err := s.RecoverSurveys(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, store
}

// TestSurveyDurableResumeByteIdentical is the kill-anywhere proof: a
// job interrupted after any prefix of its record log — including a torn
// final line — resumes on restart and finishes with a record log
// byte-identical to an uninterrupted run's, with the same tally, and
// with exactly the already-completed records skipped.
func TestSurveyDurableResumeByteIdentical(t *testing.T) {
	resolver := durableDNS(t)
	fqdns := make([]string, 8)
	for i := range fqdns {
		fqdns[i] = fmt.Sprintf("d%02d.com", i)
	}
	no := false
	req := surveyRequest{FQDNs: fqdns, Detect: &no, Spec: triage.Spec{Resolver: resolver, SkipWeb: true, DNSWorkers: 4}}

	// The golden run: uninterrupted, start to done.
	_, goldTS, goldStore := newDurableServer(t, t.TempDir())
	resp, data := postJSON(t, goldTS.URL+"/v1/survey", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("golden submit = %d: %s", resp.StatusCode, data)
	}
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	gst := pollSurvey(t, goldTS, acc.ID)
	if gst.Status != surveyDone || len(gst.Records) != 8 {
		t.Fatalf("golden final = %+v", gst)
	}
	golden, err := os.ReadFile(goldStore.RecordsPath(acc.ID))
	if err != nil {
		t.Fatal(err)
	}
	goldenTally, err := json.Marshal(gst.Tally)
	if err != nil {
		t.Fatal(err)
	}
	gm, ok := goldStore.Get(acc.ID)
	if !ok {
		t.Fatal("golden manifest missing from store")
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	if lines[len(lines)-1] != nil && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != 8 {
		t.Fatalf("golden log has %d lines", len(lines))
	}

	// Crash states: killed before any record landed, after one, midway,
	// and in draining with every record on disk — each with the torn
	// partial line a kill mid-write leaves behind.
	for _, cut := range []int{0, 1, 4, 8} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			crash, err := jobstore.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			m := gm
			m.State = jobstore.StateRunning
			if cut == len(lines) {
				m.State = jobstore.StateDraining
			}
			m.Tally = nil
			if err := crash.Put(m); err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			for _, l := range lines[:cut] {
				log.Write(l)
			}
			log.WriteString(`{"fqdn":"torn-mid-wri`)
			if err := os.WriteFile(crash.RecordsPath(m.ID), log.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}

			// "Restart": a fresh process over the same directory.
			_, ts, store := newDurableServer(t, dir)
			st := pollSurvey(t, ts, m.ID)
			if st.Status != surveyDone {
				t.Fatalf("resumed final = %+v", st)
			}
			if st.Resumes != 1 {
				t.Errorf("resumes = %d, want 1", st.Resumes)
			}
			if st.Progress.Resumed != int64(cut) {
				t.Errorf("resumed records = %d, want %d (only the missing tail re-probes)",
					st.Progress.Resumed, cut)
			}
			got, err := os.ReadFile(store.RecordsPath(m.ID))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, golden) {
				t.Errorf("record log after resume differs from golden:\n got: %q\nwant: %q", got, golden)
			}
			// The tally's Resumed counter is the one legitimate difference:
			// it records that the first cut records were skipped. Everything
			// else must match the golden tally exactly.
			if st.Tally == nil || st.Tally.Resumed != cut {
				t.Fatalf("tally = %+v, want resumed=%d", st.Tally, cut)
			}
			normalized := *st.Tally
			normalized.Resumed = 0
			gotTally, err := json.Marshal(&normalized)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotTally, goldenTally) {
				t.Errorf("tally after resume = %s, want %s", gotTally, goldenTally)
			}
			var stats Stats
			getJSON(t, ts.URL+"/metrics", &stats)
			if stats.SurveysResumed != 1 {
				t.Errorf("surveys_resumed = %d, want 1", stats.SurveysResumed)
			}
		})
	}
}

func TestSurveyRecoverQuarantinesCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "j1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j1", "manifest.job"), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	records := []byte(`{"fqdn":"a.com","has_ns":true,"has_a":false,"has_mx":false}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "j1", "records.jsonl"), records, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts, _ := newDurableServer(t, dir)
	var stats Stats
	getJSON(t, ts.URL+"/metrics", &stats)
	if stats.SurveysQuarantined != 1 {
		t.Errorf("surveys_quarantined = %d, want 1", stats.SurveysQuarantined)
	}
	resp, err := http.Get(ts.URL + "/v1/survey/j1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("quarantined job answered GET: %d", resp.StatusCode)
	}
	// Refused loudly, kept for the operator: manifest AND records moved
	// under quarantine/, not deleted.
	kept, err := os.ReadFile(filepath.Join(dir, "quarantine", "j1", "records.jsonl"))
	if err != nil {
		t.Fatalf("quarantined records: %v", err)
	}
	if !bytes.Equal(kept, records) {
		t.Errorf("quarantined records mutated: %q", kept)
	}
}

func TestSurveyWatchdogFailsStalledJob(t *testing.T) {
	blackhole := newBlackholeResolver(t)
	_, ts, _ := newDurableServer(t, t.TempDir(), func(c *SurveyConfig) {
		c.StallTimeout = 150 * time.Millisecond
	})
	no := false
	// A black-hole resolver with huge stage/DNS timeouts: without the
	// watchdog this job would pin its slot for minutes.
	resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  []string{"w1.com", "w2.com", "w3.com", "w4.com"},
		Detect: &no,
		Spec:   triage.Spec{Resolver: blackhole, SkipWeb: true, DNSTimeoutMS: 60000, StageTimeoutMS: 120000},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	st := pollSurvey(t, ts, acc.ID)
	if st.Status != surveyFailed {
		t.Fatalf("final = %+v", st)
	}
	if !st.Retryable {
		t.Errorf("a stalled job must be marked retryable: %+v", st)
	}
	if !bytes.Contains([]byte(st.Error), []byte("stalled")) {
		t.Errorf("error = %q, want a stall cause", st.Error)
	}
	// The slot is free again: a fresh job runs to completion.
	resp2, data2 := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  []string{"after.com"},
		Detect: &no,
		Spec:   triage.Spec{SkipDNS: true, SkipWeb: true},
	})
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-stall submit = %d: %s", resp2.StatusCode, data2)
	}
	var acc2 surveyAcceptedResp
	if err := json.Unmarshal(data2, &acc2); err != nil {
		t.Fatal(err)
	}
	if st2 := pollSurvey(t, ts, acc2.ID); st2.Status != surveyDone {
		t.Errorf("post-stall job = %+v", st2)
	}
}

// TestSurveyRecoverOverCapQueues restarts over more interrupted jobs
// than the running cap admits: the overflow must queue (not fail, not
// run over-cap) and drain to done as slots free up.
func TestSurveyRecoverOverCapQueues(t *testing.T) {
	dir := t.TempDir()
	seed, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		m := jobstore.Manifest{
			ID: fmt.Sprintf("j%d", i), State: jobstore.StateRunning, Epoch: 1,
			Queried: 2, Detected: 2,
			Spec: triage.Spec{SkipDNS: true, SkipWeb: true, SkipBlacklist: true},
			Inputs: []triage.Input{
				{FQDN: fmt.Sprintf("a%d.com", i)},
				{FQDN: fmt.Sprintf("b%d.com", i)},
			},
		}
		if err := seed.Put(m); err != nil {
			t.Fatal(err)
		}
	}

	_, ts, _ := newDurableServer(t, dir, func(c *SurveyConfig) { c.MaxJobs = 1 })
	for i := 1; i <= 3; i++ {
		st := pollSurvey(t, ts, fmt.Sprintf("j%d", i))
		if st.Status != surveyDone || len(st.Records) != 2 {
			t.Fatalf("j%d = %+v", i, st)
		}
		if st.Resumes != 1 {
			t.Errorf("j%d resumes = %d, want 1", i, st.Resumes)
		}
	}
	var stats Stats
	getJSON(t, ts.URL+"/metrics", &stats)
	if stats.SurveysResumed != 3 || stats.SurveysActive != 0 {
		t.Errorf("metrics = resumed %d active %d, want 3/0", stats.SurveysResumed, stats.SurveysActive)
	}
	if stats.SurveyJobs["done"] != 3 {
		t.Errorf("survey_jobs = %v", stats.SurveyJobs)
	}
	if stats.SurveyTally == nil || stats.SurveyTally.Total != 6 {
		t.Errorf("aggregate tally = %+v", stats.SurveyTally)
	}
}

// TestSurveyRetentionEviction covers the unbounded-registry fix: the
// finished-jobs cap and the TTL both evict (registry entry, durable
// directory) and count.
func TestSurveyRetentionEviction(t *testing.T) {
	dir := t.TempDir()
	srv, ts, _ := newDurableServer(t, dir, func(c *SurveyConfig) {
		c.JobTTL = time.Hour
		c.KeepFinished = 2
	})
	// An injectable clock: the TTL half of the test advances it two
	// hours without sleeping.
	var skew atomic.Int64
	srv.surveys.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }

	no := false
	ids := make([]string, 4)
	for i := range ids {
		resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
			FQDNs:  []string{fmt.Sprintf("r%d.com", i)},
			Detect: &no,
			Spec:   triage.Spec{SkipDNS: true, SkipWeb: true},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, data)
		}
		var acc surveyAcceptedResp
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		ids[i] = acc.ID
		pollSurvey(t, ts, acc.ID)
	}

	// Cap: keep 2 of 4 finished jobs; the two oldest go, registry and
	// disk both.
	var stats Stats
	getJSON(t, ts.URL+"/metrics", &stats)
	if stats.SurveysEvicted != 2 {
		t.Fatalf("surveys_evicted = %d, want 2", stats.SurveysEvicted)
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(ts.URL + "/v1/survey/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted %s still answers: %d", id, resp.StatusCode)
		}
		if _, err := os.Stat(filepath.Join(dir, id)); !os.IsNotExist(err) {
			t.Errorf("evicted %s kept its durable directory", id)
		}
	}
	if st := pollSurvey(t, ts, ids[3]); st.Status != surveyDone {
		t.Fatalf("kept job = %+v", st)
	}

	// TTL: two hours later the remaining finished jobs expire too. A
	// fresh Stats value, because survey_jobs is omitempty and a reused
	// decode target would keep the previous scrape's map.
	skew.Store(int64(2 * time.Hour))
	var after Stats
	getJSON(t, ts.URL+"/metrics", &after)
	if after.SurveysEvicted != 4 {
		t.Errorf("surveys_evicted after TTL = %d, want 4", after.SurveysEvicted)
	}
	if _, err := os.Stat(filepath.Join(dir, ids[3])); !os.IsNotExist(err) {
		t.Errorf("TTL-expired %s kept its durable directory", ids[3])
	}
	if len(after.SurveyJobs) != 0 {
		t.Errorf("survey_jobs after full eviction = %v", after.SurveyJobs)
	}
}

// TestSurveyCancelRacesCompletion fires DELETE the instant after each
// submit of a near-instant job: whichever side wins, the job must land
// in a terminal state (or be evicted by the terminal-DELETE path),
// never wedge, and never leak its running slot.
func TestSurveyCancelRacesCompletion(t *testing.T) {
	_, ts, _ := newDurableServer(t, t.TempDir(), func(c *SurveyConfig) { c.MaxJobs = 1 })
	no := false
	// The previous job's slot frees asynchronously after it turns
	// terminal, so a prompt re-submit can legitimately shed 429 —
	// retry like a real client would.
	submit := func(i int) surveyAcceptedResp {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
				FQDNs:  []string{fmt.Sprintf("race%d.com", i)},
				Detect: &no,
				Spec:   triage.Spec{SkipDNS: true, SkipWeb: true},
			})
			if resp.StatusCode == http.StatusTooManyRequests && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, data)
			}
			var acc surveyAcceptedResp
			if err := json.Unmarshal(data, &acc); err != nil {
				t.Fatal(err)
			}
			return acc
		}
	}
	for i := 0; i < 8; i++ {
		acc := submit(i)
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/survey/"+acc.ID, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %d = %d", i, dresp.StatusCode)
		}
		// The job must settle: terminal, or already evicted (DELETE saw
		// it terminal and removed it).
		deadline := time.Now().Add(10 * time.Second)
		for {
			gresp, err := http.Get(ts.URL + "/v1/survey/" + acc.ID)
			if err != nil {
				t.Fatal(err)
			}
			if gresp.StatusCode == http.StatusNotFound {
				gresp.Body.Close()
				break
			}
			var st surveyStatus
			if err := json.NewDecoder(gresp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			gresp.Body.Close()
			if jobstore.Terminal(st.Status) {
				if st.Status != surveyDone && st.Status != surveyCancelled {
					t.Fatalf("race %d landed in %q", i, st.Status)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("race %d wedged in %q", i, st.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// No slot leaked across 8 races: with MaxJobs=1 a fresh submit is
	// still admitted (after at most one in-flight drain) and finishes.
	acc := submit(99)
	if st := pollSurvey(t, ts, acc.ID); st.Status != surveyDone {
		t.Errorf("post-race job = %+v", st)
	}
}

// TestSurveyDeleteOnResumedJob cancels a job that a restart resumed,
// then deletes it again: the first DELETE cancels the live pipeline,
// the second evicts the registry entry and the durable directory.
func TestSurveyDeleteOnResumedJob(t *testing.T) {
	blackhole := newBlackholeResolver(t)
	dir := t.TempDir()
	seed, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]triage.Input, 8)
	for i := range inputs {
		inputs[i] = triage.Input{FQDN: fmt.Sprintf("s%d.com", i)}
	}
	m := jobstore.Manifest{
		ID: "j1", State: jobstore.StateRunning, Epoch: 1, Queried: 8, Detected: 8,
		Spec: triage.Spec{
			Resolver: blackhole, SkipWeb: true,
			DNSWorkers: 1, DNSTimeoutMS: 60000, StageTimeoutMS: 120000,
		},
		Inputs: inputs,
	}
	if err := seed.Put(m); err != nil {
		t.Fatal(err)
	}

	_, ts, _ := newDurableServer(t, dir)
	var st surveyStatus
	getJSON(t, ts.URL+"/v1/survey/j1", &st)
	if st.Status != surveyRunning || st.Resumes != 1 {
		t.Fatalf("recovered job = %+v", st)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/survey/j1", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", dresp.StatusCode)
	}
	if st = pollSurvey(t, ts, "j1"); st.Status != surveyCancelled {
		t.Fatalf("after cancel = %+v", st)
	}

	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/survey/j1", nil)
	dresp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusOK {
		t.Fatalf("second delete = %d", dresp2.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/survey/j1")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted job still answers: %d", gresp.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, "j1")); !os.IsNotExist(err) {
		t.Errorf("deleted job kept its durable directory")
	}
}

// TestSurveyRegistrySlotAccounting pins the slot state machine the
// cancel/launch race rides on: dequeue is first-wins, and a released
// slot either frees up or moves atomically to the queue head.
func TestSurveyRegistrySlotAccounting(t *testing.T) {
	r := &surveyRegistry{}
	if !r.tryReserve(1) {
		t.Fatal("first reserve refused")
	}
	if r.tryReserve(1) {
		t.Fatal("over-cap reserve admitted")
	}
	j := &surveyJob{id: "q1", status: surveyAccepted}
	r.enqueue(j)
	if !r.dequeue(j) {
		t.Fatal("dequeue missed a queued job")
	}
	if r.dequeue(j) {
		t.Fatal("second dequeue claimed an already-dequeued job (the cancel race must be first-wins)")
	}
	if got := r.release(); got != nil {
		t.Fatalf("release with an empty queue handed out %v", got)
	}
	if !r.tryReserve(1) {
		t.Fatal("released slot not reusable")
	}
	r.enqueue(j)
	if got := r.release(); got != j {
		t.Fatalf("release = %v, want the queued job", got)
	}
	if r.tryReserve(1) {
		t.Fatal("slot handoff to a queued job must keep the slot occupied")
	}
}

// TestSurveyTerminalManifestBeforeStatus pins the finalize order: the
// terminal manifest is on disk before the status says the job finished,
// so a poller that sees "done" may use (or remove) the job's durable
// state at once. The status is polled without pause, to land inside any
// window between the two.
func TestSurveyTerminalManifestBeforeStatus(t *testing.T) {
	resolver := durableDNS(t)
	_, ts, store := newDurableServer(t, t.TempDir())
	no := false
	req := surveyRequest{FQDNs: []string{"d00.com", "d01.com", "d02.com"}, Detect: &no, Spec: triage.Spec{Resolver: resolver, SkipWeb: true}}
	for run := 0; run < 5; run++ {
		resp, data := postJSON(t, ts.URL+"/v1/survey", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d: %s", resp.StatusCode, data)
		}
		var acc surveyAcceptedResp
		if err := json.Unmarshal(data, &acc); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		var st surveyStatus
		for {
			getJSON(t, ts.URL+"/v1/survey/"+acc.ID+"?records=0", &st)
			if jobstore.Terminal(st.Status) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("survey did not finish")
			}
		}
		if st.Status != surveyDone {
			t.Fatalf("run %d: final = %+v", run, st)
		}
		if m, ok := store.Get(acc.ID); !ok || m.State != surveyDone {
			t.Fatalf("run %d: status is done but the stored manifest says %q (present %v)", run, m.State, ok)
		}
	}
}
