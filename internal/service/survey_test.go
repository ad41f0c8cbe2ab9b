package service

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"repro/internal/blacklist"
	"repro/internal/core"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/jobstore"
	"repro/internal/triage"
	"repro/internal/websim"
)

// surveyEnv stands up the simulated measurement backends plus a
// serving engine, mirroring what `shamfinder serve` would wire in a
// deployment that fronts the triage pipeline.
func surveyEnv(t *testing.T) (*httptest.Server, string, *blacklist.Set) {
	t.Helper()
	hosted := ace(t, "gооgle") + ".com"   // NS+A, normal site
	parked := ace(t, "fаcebook") + ".com" // NS only
	store := dnsserver.NewStore()
	store.AddApex("com.")
	store.Add(dnswire.Record{Name: "com.", Class: dnswire.ClassIN, TTL: 900, Data: dnswire.SOA{
		MName: "a.gtld-servers.net.", RName: "nstld.example.",
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}})
	store.Add(dnswire.Record{Name: hosted + ".", Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NS{Host: "ns1." + hosted + "."}})
	store.Add(dnswire.Record{Name: hosted + ".", Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("127.0.0.1")}})
	store.Add(dnswire.Record{Name: parked + ".", Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NS{Host: "ns1." + parked + "."}})
	dns := dnsserver.NewServer(store)
	if err := dns.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dns.Close() })

	web := websim.NewServer()
	if err := web.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { web.Close() })
	web.SetSite(hosted, websim.Site{Kind: "normal", Title: "hosted"})

	feeds := &blacklist.Set{
		HpHosts:  blacklist.NewFeed("hpHosts"),
		GSB:      blacklist.NewFeed("GSB"),
		Symantec: blacklist.NewFeed("Symantec"),
	}
	feeds.HpHosts.Add(hosted)

	engine := core.NewEngine(core.NewDetector(testDB(t), []string{"google", "facebook"}))
	s := New(Config{
		Engine: engine,
		Survey: SurveyConfig{
			Resolve: func(domain string, port int) string {
				if port == 443 {
					return web.HTTPSAddr()
				}
				return web.HTTPAddr()
			},
			Blacklists: feeds,
		},
	})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, dns.Addr(), feeds
}

func pollSurvey(t *testing.T, ts *httptest.Server, id string) surveyStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st surveyStatus
		resp := getJSON(t, ts.URL+"/v1/survey/"+id, &st)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll = %d", resp.StatusCode)
		}
		if jobstore.Terminal(st.Status) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("survey did not finish")
	return surveyStatus{}
}

func TestSurveyJobEndToEnd(t *testing.T) {
	ts, resolver, _ := surveyEnv(t)
	hosted := ace(t, "gооgle") + ".com"
	parked := ace(t, "fаcebook") + ".com"
	resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		// Mixed candidates: two homographs (different DNS fates), a
		// plain domain the detector must filter out, and an unknown
		// homograph-free IDN.
		FQDNs: []string{hosted, "plain.com", parked, ace(t, "bücher") + ".com"},
		Spec:  triage.Spec{Resolver: resolver},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Status != surveyRunning || acc.Epoch != 1 || acc.Queried != 4 || acc.Detected != 2 {
		t.Fatalf("accepted = %+v", acc)
	}

	st := pollSurvey(t, ts, acc.ID)
	if st.Status != surveyDone {
		t.Fatalf("final status = %+v", st)
	}
	if len(st.Records) != 2 {
		t.Fatalf("records = %+v", st.Records)
	}
	byName := map[string]triage.Record{}
	for _, rec := range st.Records {
		byName[rec.FQDN] = rec
	}
	h := byName[hosted]
	if !h.HasNS || !h.HasA || h.Category != "Normal" || h.Reference != "google.com" {
		t.Errorf("hosted record = %+v", h)
	}
	if len(h.Blacklists) != 1 || h.Blacklists[0] != "hpHosts" {
		t.Errorf("hosted blacklists = %v", h.Blacklists)
	}
	p := byName[parked]
	if !p.HasNS || p.HasA || p.Category != "" {
		t.Errorf("parked record = %+v", p)
	}
	if st.Tally == nil || st.Tally.Total != 2 || st.Tally.WithNS != 2 || st.Tally.WithA != 1 {
		t.Errorf("tally = %+v", st.Tally)
	}
	if st.Progress.Done != 2 {
		t.Errorf("progress = %+v", st.Progress)
	}

	// records=0 trims the payload for pollers.
	var slim surveyStatus
	getJSON(t, ts.URL+"/v1/survey/"+acc.ID+"?records=0", &slim)
	if slim.Records != nil || slim.Tally == nil {
		t.Errorf("slim poll = %+v", slim)
	}

	// Metrics picked the job up.
	var stats Stats
	getJSON(t, ts.URL+"/metrics", &stats)
	if stats.Surveys != 1 || stats.SurveyDomains != 2 || stats.SurveysActive != 0 {
		t.Errorf("survey metrics = %+v", stats)
	}
}

func TestSurveyDetectFalseSurveysEverything(t *testing.T) {
	ts, resolver, _ := surveyEnv(t)
	no := false
	resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  []string{"Plain.COM.", "plain.com"},
		Detect: &no,
		Spec:   triage.Spec{Resolver: resolver, SkipWeb: true},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Detected != 1 { // deduped + normalized
		t.Fatalf("accepted = %+v", acc)
	}
	st := pollSurvey(t, ts, acc.ID)
	if st.Status != surveyDone || len(st.Records) != 1 || st.Records[0].FQDN != "plain.com" {
		t.Fatalf("final = %+v", st)
	}
	// plain.com is not in the zone: NXDOMAIN, no error.
	if st.Records[0].HasNS || st.Records[0].DNSError != "" {
		t.Errorf("record = %+v", st.Records[0])
	}
}

func TestSurveyValidation(t *testing.T) {
	ts, resolver, _ := surveyEnv(t)
	for _, tc := range []struct {
		name string
		req  surveyRequest
		want int
	}{
		{"no fqdns", surveyRequest{Spec: triage.Spec{Resolver: resolver}}, http.StatusBadRequest},
		{"no resolver", surveyRequest{FQDNs: []string{"a.com"}}, http.StatusBadRequest},
		{"bad resolver", surveyRequest{FQDNs: []string{"a.com"}, Spec: triage.Spec{Resolver: "not-an-addr"}}, http.StatusUnprocessableEntity},
	} {
		resp, data := postJSON(t, ts.URL+"/v1/survey", tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d (%s), want %d", tc.name, resp.StatusCode, data, tc.want)
		}
	}
	// Every request key is accepted; one more is rejected.
	every := `{"fqdns":["a.com"],"detect":false,"resolver":"` + resolver + `","dns_transport":"tcp","backend":"both",` +
		`"dns_workers":2,"web_workers":2,"rate":50,"retries":0,"stage_timeout_ms":2000,"dns_timeout_ms":500,` +
		`"web_timeout_ms":500,"skip_dns":false,"skip_web":true,"skip_blacklist":true`
	for body, want := range map[string]int{every + "}": http.StatusAccepted, every + `,"parking_ns":["p.example"]}`: http.StatusBadRequest} {
		resp, data := postJSON(t, ts.URL+"/v1/survey", json.RawMessage(body))
		if resp.StatusCode != want {
			t.Errorf("%s: status = %d (%s), want %d", body, resp.StatusCode, data, want)
		}
		var acc surveyAcceptedResp
		if json.Unmarshal(data, &acc) == nil && acc.ID != "" {
			pollSurvey(t, ts, acc.ID)
		}
	}
	resp, _ := http.Get(ts.URL + "/v1/survey/s999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSurveyCancel(t *testing.T) {
	ts, _, _ := surveyEnv(t)
	// A big detect=false batch against a black-hole resolver with one
	// worker: plenty of time to cancel mid-flight.
	blackhole := newBlackholeResolver(t)
	no := false
	fqdns := make([]string, 64)
	for i := range fqdns {
		fqdns[i] = fmt.Sprintf("c%02d.com", i)
	}
	resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  fqdns,
		Detect: &no,
		Spec:   triage.Spec{Resolver: blackhole, SkipWeb: true, DNSWorkers: 1, DNSTimeoutMS: 200},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/survey/"+acc.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", dresp.StatusCode)
	}
	st := pollSurvey(t, ts, acc.ID)
	if st.Status != surveyCancelled {
		t.Fatalf("status after cancel = %+v", st)
	}
	if int(st.Progress.Done) >= len(fqdns) {
		t.Errorf("cancel landed after completion: %+v", st.Progress)
	}
}

// newBlackholeResolver binds a UDP socket that never answers.
func newBlackholeResolver(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, _, err := conn.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	return conn.LocalAddr().String()
}

func TestSurveyDetectFalseNormalizesUnicode(t *testing.T) {
	ts, resolver, _ := surveyEnv(t)
	no := false
	resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  []string{"gооgle.com"}, // Cyrillic: must probe as xn--ggle-55da.com
		Detect: &no,
		Spec:   triage.Spec{Resolver: resolver, SkipWeb: true},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	st := pollSurvey(t, ts, acc.ID)
	if len(st.Records) != 1 || st.Records[0].FQDN != ace(t, "gооgle")+".com" {
		t.Fatalf("records = %+v", st.Records)
	}
	// The zone hosts this ACE name, so the probe must have found it.
	if !st.Records[0].HasNS || !st.Records[0].HasA {
		t.Errorf("record = %+v", st.Records[0])
	}
}

func TestSurveyDeleteEvictsFinishedJob(t *testing.T) {
	ts, resolver, _ := surveyEnv(t)
	resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs: []string{ace(t, "gооgle") + ".com"},
		Spec:  triage.Spec{Resolver: resolver, SkipWeb: true},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, data)
	}
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	if st := pollSurvey(t, ts, acc.ID); st.Status != surveyDone {
		t.Fatalf("status = %+v", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/survey/"+acc.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete = %d", dresp.StatusCode)
	}
	gresp, err := http.Get(ts.URL + "/v1/survey/" + acc.ID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("finished job survived DELETE: %d", gresp.StatusCode)
	}
}

func TestSurveyShedsBeforeDetection(t *testing.T) {
	// MaxJobs=1: with one slot held by a slow job, a second submit must
	// be rejected 429 — reservation happens before any detection work.
	blackhole := newBlackholeResolver(t)
	engine := core.NewEngine(core.NewDetector(testDB(t), []string{"google"}))
	s := New(Config{Engine: engine, Survey: SurveyConfig{MaxJobs: 1}})
	ts := httptest.NewServer(s)
	defer ts.Close()
	no := false
	resp, data := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  []string{"slow.com"},
		Detect: &no,
		Spec:   triage.Spec{Resolver: blackhole, SkipWeb: true, DNSTimeoutMS: 2000},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, data)
	}
	resp2, _ := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  []string{"other.com"},
		Detect: &no,
		Spec:   triage.Spec{Resolver: blackhole, SkipWeb: true},
	})
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit = %d, want 429", resp2.StatusCode)
	}
	// A rejected submit must release nothing it did not hold: after the
	// first job finishes, a third submit succeeds.
	var acc surveyAcceptedResp
	if err := json.Unmarshal(data, &acc); err != nil {
		t.Fatal(err)
	}
	pollSurvey(t, ts, acc.ID)
	resp3, data3 := postJSON(t, ts.URL+"/v1/survey", surveyRequest{
		FQDNs:  []string{"third.com"},
		Detect: &no,
		Spec:   triage.Spec{Resolver: blackhole, SkipWeb: true, DNSTimeoutMS: 100},
	})
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("third submit = %d: %s", resp3.StatusCode, data3)
	}
}
