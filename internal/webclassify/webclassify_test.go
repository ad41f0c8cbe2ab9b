package webclassify

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/hostsim"
	"repro/internal/websim"
)

// env deploys a websim with one site per category and returns a
// classifier wired through a hostsim mapper.
func env(t *testing.T) (*websim.Server, *hostsim.Mapper, *Classifier) {
	t.Helper()
	srv := websim.NewServer()
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	mapper, err := hostsim.NewMapper()
	if err != nil {
		t.Fatal(err)
	}
	c := &Classifier{
		Resolve: mapper.Resolve,
		Timeout: 2 * time.Second,
		Workers: 8,
	}
	return srv, mapper, c
}

func deploy(srv *websim.Server, m *hostsim.Mapper, domain string, site websim.Site, ports ...int) {
	srv.SetSite(domain, site)
	for _, p := range ports {
		if p == 443 {
			m.Open(domain, p, srv.HTTPSAddr())
		} else {
			m.Open(domain, p, srv.HTTPAddr())
		}
	}
}

func TestClassifyCategories(t *testing.T) {
	srv, m, c := env(t)
	deploy(srv, m, "parked.com", websim.Site{Kind: "parked"}, 80)
	deploy(srv, m, "sale.com", websim.Site{Kind: "forsale"}, 80)
	deploy(srv, m, "redir.com", websim.Site{Kind: "redirect", RedirectTarget: "target.com"}, 80)
	deploy(srv, m, "normal.com", websim.Site{Kind: "normal", Title: "News"}, 80)
	deploy(srv, m, "empty.com", websim.Site{Kind: "empty"}, 80)
	deploy(srv, m, "broken.com", websim.Site{Kind: "error"}, 80)

	cases := []struct {
		domain string
		want   Category
	}{
		{"parked.com", CatParked},
		{"sale.com", CatForSale},
		{"redir.com", CatRedirect},
		{"normal.com", CatNormal},
		{"empty.com", CatEmpty},
		{"broken.com", CatError},
		{"offline.com", CatError}, // nothing listening at all
	}
	for _, tc := range cases {
		got := c.Classify(tc.domain)
		if got.Category != tc.want {
			t.Errorf("Classify(%s) = %s, want %s", tc.domain, got.Category, tc.want)
		}
	}
}

func TestClassifyRedirectTarget(t *testing.T) {
	srv, m, c := env(t)
	deploy(srv, m, "redir.com", websim.Site{Kind: "redirect", RedirectTarget: "brand.com"}, 80)
	res := c.Classify("redir.com")
	if res.RedirectTarget != "brand.com" {
		t.Errorf("redirect target = %q", res.RedirectTarget)
	}
}

func TestClassifyHTTPSFallback(t *testing.T) {
	srv, m, c := env(t)
	// Only port 443 open — the paper's 5 TLS-only homographs.
	deploy(srv, m, "tlsonly.com", websim.Site{Kind: "parked"}, 443)
	res := c.Classify("tlsonly.com")
	if res.Category != CatParked {
		t.Errorf("https-only classified as %s", res.Category)
	}
	if res.StatusHTTP != 0 || res.StatusHTTPS != 200 {
		t.Errorf("statuses = %d/%d", res.StatusHTTP, res.StatusHTTPS)
	}
}

func TestRedirectClassification(t *testing.T) {
	srv, m, c := env(t)
	c.Reverter = func(domain string) (string, bool) {
		if domain == "xn--fake.com" {
			return "gmail.com", true
		}
		return "", false
	}
	c.IsMalicious = func(domain string) bool { return domain == "trap.example" }

	deploy(srv, m, "xn--fake.com", websim.Site{Kind: "redirect", RedirectTarget: "gmail.com"}, 80)
	deploy(srv, m, "xn--legit.com", websim.Site{Kind: "redirect", RedirectTarget: "cdn.example"}, 80)
	deploy(srv, m, "xn--evil.com", websim.Site{Kind: "redirect", RedirectTarget: "trap.example"}, 80)

	cases := []struct {
		domain string
		want   RedirectClass
	}{
		{"xn--fake.com", RedirBrand},
		{"xn--legit.com", RedirLegit},
		{"xn--evil.com", RedirMalicious},
	}
	for _, tc := range cases {
		got := c.Classify(tc.domain)
		if got.RedirectClass != tc.want {
			t.Errorf("%s: class = %q, want %q", tc.domain, got.RedirectClass, tc.want)
		}
	}
}

func TestCrawlerUserAgentGetsCloaked(t *testing.T) {
	srv, m, c := env(t)
	deploy(srv, m, "phish.com", websim.Site{Kind: "phishing", Cloaking: true}, 80)
	// A crawler-identifying survey sees an empty page.
	c.UserAgent = "SurveyBot/1.0"
	if got := c.Classify("phish.com"); got.Category != CatEmpty {
		t.Errorf("crawler UA saw %s, want %s", got.Category, CatEmpty)
	}
	// A browser UA sees the credential form (classified Normal).
	c.UserAgent = "Mozilla/5.0 (X11; Linux) Firefox/115.0"
	if got := c.Classify("phish.com"); got.Category != CatNormal {
		t.Errorf("browser UA saw %s, want %s", got.Category, CatNormal)
	}
}

func TestClassifyBatchAndTally(t *testing.T) {
	srv, m, c := env(t)
	deploy(srv, m, "p1.com", websim.Site{Kind: "parked"}, 80)
	deploy(srv, m, "p2.com", websim.Site{Kind: "parked"}, 80)
	deploy(srv, m, "r1.com", websim.Site{Kind: "redirect", RedirectTarget: "x.example"}, 80)

	results := c.ClassifyBatch([]string{"p1.com", "p2.com", "r1.com", "gone.com"})
	if len(results) != 4 || results[0].Domain != "p1.com" {
		t.Fatalf("batch order broken: %v", results)
	}
	tally := TallyResults(results)
	if tally.ByCategory[CatParked] != 2 || tally.ByCategory[CatRedirect] != 1 || tally.ByCategory[CatError] != 1 {
		t.Errorf("tally = %+v", tally.ByCategory)
	}
	if tally.ByRedirect[RedirLegit] != 1 {
		t.Errorf("redirect tally = %+v", tally.ByRedirect)
	}
}

func TestRegistrable(t *testing.T) {
	cases := []struct{ in, want string }{
		{"http://target.com/", "target.com"},
		{"https://Target.COM:8443/path", "target.com"},
		{"//host.example/x", "host.example"},
		{"/relative/path", "relative/path"},
	}
	for _, tc := range cases {
		if got := registrable(tc.in); got != tc.want {
			t.Errorf("registrable(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSlowHostClassifiedAsError(t *testing.T) {
	srv, m, c := env(t)
	c.Timeout = 300 * time.Millisecond
	deploy(srv, m, "hung.com", websim.Site{Kind: "slow"}, 80)
	start := time.Now()
	res := c.Classify("hung.com")
	if res.Category != CatError {
		t.Errorf("slow host classified as %s", res.Category)
	}
	// Both schemes time out; the whole classification must finish in
	// roughly two timeouts, not hang.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("classification took %v", elapsed)
	}
}

// TestStalledBodyClassifiedAsError: a host that sends its headers and
// then hangs mid-body is as hung as one that never answers. The fetch
// used to drop the body's read error and classify the empty body read
// so far as an Empty page.
func TestStalledBodyClassifiedAsError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() {
		close(done)
		ln.Close()
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 4096)
				if _, err := conn.Read(buf); err != nil {
					return
				}
				io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 4096\r\n\r\n")
				select { // the body never comes
				case <-done:
				case <-time.After(10 * time.Second):
				}
			}()
		}
	}()
	_, m, c := env(t)
	c.Timeout = 200 * time.Millisecond
	for _, port := range []int{80, 443} {
		m.Open("stalled.com", port, ln.Addr().String())
	}
	res := c.Classify("stalled.com")
	if res.Category != CatError || res.StatusHTTP != 0 || res.StatusHTTPS != 0 {
		t.Errorf("stalled body classified as %+v, want Error with no status", res)
	}
}

func TestNSBasedParkingSignal(t *testing.T) {
	srv, m, c := env(t)
	// The site content says "normal", but the delegation points at a
	// parking provider — the NS signal must win (and spare the fetch).
	deploy(srv, m, "nspark.com", websim.Site{Kind: "normal"}, 80)
	c.ParkingNS = []string{"sedoparking.example"}
	c.NSLookup = func(domain string) ([]string, error) {
		if domain == "nspark.com" {
			return []string{"ns1.sedoparking.example."}, nil
		}
		return []string{"ns1." + domain + "."}, nil
	}
	if got := c.Classify("nspark.com"); got.Category != CatParked {
		t.Errorf("NS-parked domain classified as %s", got.Category)
	}
	// Generic NS falls through to content classification.
	deploy(srv, m, "generic.com", websim.Site{Kind: "normal"}, 80)
	if got := c.Classify("generic.com"); got.Category != CatNormal {
		t.Errorf("generic-NS domain classified as %s", got.Category)
	}
	// NS lookup failures are non-fatal: content path still runs.
	c.NSLookup = func(string) ([]string, error) { return nil, errors.New("SERVFAIL") }
	if got := c.Classify("generic.com"); got.Category != CatNormal {
		t.Errorf("NS failure broke classification: %s", got.Category)
	}
}

// --- ClassifyBatch concurrency ---

func TestClassifyBatchOrderAcrossWorkerCounts(t *testing.T) {
	srv, m, c := env(t)
	kinds := []string{"normal", "forsale", "parked", "empty", "redirect"}
	domains := make([]string, 40)
	for i := range domains {
		domains[i] = fmt.Sprintf("c%02d.example", i)
		site := websim.Site{Kind: kinds[i%len(kinds)]}
		if site.Kind == "redirect" {
			site.RedirectTarget = "target.example"
		}
		deploy(srv, m, domains[i], site, 80)
	}
	var baseline []Result
	for _, workers := range []int{1, 4, 32} {
		c.Workers = workers
		results := c.ClassifyBatch(domains)
		if len(results) != len(domains) {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, res := range results {
			if res.Domain != domains[i] {
				t.Fatalf("workers=%d: position %d = %s, want %s", workers, i, res.Domain, domains[i])
			}
		}
		if baseline == nil {
			baseline = results
			// Spot-check the categories really differ across positions,
			// so order bugs cannot cancel out.
			if baseline[0].Category != CatNormal || baseline[1].Category != CatForSale ||
				baseline[2].Category != CatParked || baseline[4].Category != CatRedirect {
				t.Fatalf("unexpected category layout: %+v", baseline[:5])
			}
		} else if !reflect.DeepEqual(results, baseline) {
			t.Fatalf("workers=%d results differ from workers=1 baseline", workers)
		}
	}
}

func TestClassifyBatchTimeoutDrainsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, m, c := env(t)
	c.Timeout = 150 * time.Millisecond
	c.Workers = 32
	domains := make([]string, 24)
	for i := range domains {
		domains[i] = fmt.Sprintf("hang%02d.example", i)
		// Every site hangs far past the client timeout; the pool must
		// drain on the timeout alone.
		deploy(srv, m, domains[i], websim.Site{Kind: "slow"}, 80)
	}
	results := c.ClassifyBatch(domains)
	for i, res := range results {
		if res.Category != CatError {
			t.Fatalf("result %d = %+v, want Error from timeout", i, res)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("worker goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}
