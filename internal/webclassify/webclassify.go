// Package webclassify probes the websites of detected homographs over
// HTTP and HTTPS and classifies them into the paper's Table 12
// categories (parked / for-sale / redirect / normal / empty / error)
// plus the Table 13 redirect breakdown (brand protection / legitimate
// / malicious). Classification uses the HTTP response alone — status,
// Location header, body phrases — the way the paper's
// screenshot-and-response pipeline did, not the simulator's ground
// truth.
package webclassify

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// Category is the classification outcome for one site.
type Category string

// Categories of Table 12.
const (
	CatParked   Category = "Domain parking"
	CatForSale  Category = "For sale"
	CatRedirect Category = "Redirect"
	CatNormal   Category = "Normal"
	CatEmpty    Category = "Empty"
	CatError    Category = "Error"
)

// RedirectClass is the Table 13 breakdown.
type RedirectClass string

// Redirect classes.
const (
	RedirBrand     RedirectClass = "Brand protection"
	RedirLegit     RedirectClass = "Legitimate website"
	RedirMalicious RedirectClass = "Malicious website"
	RedirUnknown   RedirectClass = ""
)

// Result is the classification of one domain.
type Result struct {
	Domain         string
	Category       Category
	RedirectTarget string // registrable domain from Location, if any
	RedirectClass  RedirectClass
	StatusHTTP     int // 0 when the HTTP fetch failed
	StatusHTTPS    int
}

// Resolver maps (domain, port) to a dialable address, satisfied by
// hostsim.Mapper.Resolve.
type Resolver func(domain string, port int) string

// Classifier fetches and classifies homograph websites.
type Classifier struct {
	// Resolve locates the listener for each domain/port. Required.
	Resolve Resolver
	// Timeout bounds each fetch. Zero means 3 seconds.
	Timeout time.Duration
	// Workers bounds concurrent fetches. Zero means 32.
	Workers int
	// UserAgent is sent on every request; survey crawlers identify
	// themselves, which is exactly what cloaking sites key on.
	UserAgent string

	// Reverter maps a homograph domain to the original it imitates
	// ("xn--ggle..com" -> "google.com"); used to recognise brand-
	// protection redirects. Optional.
	Reverter func(domain string) (string, bool)
	// IsMalicious reports whether a redirect target is a known-bad
	// domain (a blacklist lookup). Optional.
	IsMalicious func(domain string) bool
	// NSLookup returns the NS hosts of a domain; combined with
	// ParkingNS it implements the paper's first-pass parking
	// classification by delegation target (Vissers et al.). Optional.
	NSLookup func(domain string) ([]string, error)
	// ParkingNS are name-server suffixes of known parking providers.
	ParkingNS []string
}

// parkedByNS reports whether the domain's delegation points at a known
// parking provider.
func (c *Classifier) parkedByNS(domain string) bool {
	if c.NSLookup == nil || len(c.ParkingNS) == 0 {
		return false
	}
	hosts, err := c.NSLookup(domain)
	if err != nil {
		return false
	}
	return ParkedOn(hosts, c.ParkingNS)
}

// ParkedOn reports whether any of nsHosts sits on (or under) one of the
// parking-provider suffixes — the Vissers-style first-pass parking test
// by delegation target. Exported so pipelines that already hold a
// domain's NS answer (the triage pipeline's DNS stage captures it) can
// classify without a second lookup.
func ParkedOn(nsHosts, providers []string) bool {
	for _, h := range nsHosts {
		h = strings.TrimSuffix(strings.ToLower(h), ".")
		for _, provider := range providers {
			if h == provider || strings.HasSuffix(h, "."+provider) {
				return true
			}
		}
	}
	return false
}

func (c *Classifier) timeout() time.Duration {
	if c.Timeout == 0 {
		return 3 * time.Second
	}
	return c.Timeout
}

// client builds an HTTP client that dials through the resolver and
// does not follow redirects (the Location header is the signal). The
// fetch's context, not the client, bounds the whole exchange.
func (c *Classifier) client(port int) *http.Client {
	dialer := &net.Dialer{Timeout: c.timeout()}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = addr
			}
			return dialer.DialContext(ctx, network, c.Resolve(host, port))
		},
		TLSClientConfig:   &tls.Config{InsecureSkipVerify: true},
		DisableKeepAlives: true,
	}
	return &http.Client{
		Transport: transport,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// fetch retrieves scheme://domain/ and returns status, body prefix and
// the Location header. The exchange, body included, must end within
// the timeout, or it is an error: a host that stalls mid-body, or
// whose answer lands only once the timeout has fired, is a host too
// slow to load, the paper's Error class, not an empty page. (A TLS
// client that gives up sends close_notify before it closes the
// connection, and a server that answers that with an empty response
// races the close: the transport can hand back the late response.)
func (c *Classifier) fetch(scheme, domain string, port int) (status int, body, location string, err error) {
	client := c.client(port)
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", scheme+"://"+domain+"/", nil)
	if err != nil {
		return 0, "", "", fmt.Errorf("webclassify: building request: %w", err)
	}
	if c.UserAgent != "" {
		req.Header.Set("User-Agent", c.UserAgent)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64*1024))
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return 0, "", "", fmt.Errorf("webclassify: reading %s://%s/: %w", scheme, domain, err)
	}
	return resp.StatusCode, string(b), resp.Header.Get("Location"), nil
}

// Classify probes one domain and derives its category: first the NS
// delegation check (parked domains sit on parking-company name
// servers), then HTTP with HTTPS fallback.
func (c *Classifier) Classify(domain string) Result {
	res := Result{Domain: domain}
	if c.parkedByNS(domain) {
		res.Category = CatParked
		return res
	}
	status, body, location, err := c.fetch("http", domain, 80)
	res.StatusHTTP = status
	if err != nil {
		// Try HTTPS before declaring an error.
		status, body, location, err = c.fetch("https", domain, 443)
		res.StatusHTTPS = status
		if err != nil {
			res.Category = CatError
			return res
		}
	}
	res.Category, res.RedirectTarget = categorize(status, body, location)
	if res.Category == CatRedirect {
		res.RedirectClass = c.classifyRedirect(domain, res.RedirectTarget)
	}
	return res
}

// categorize applies the response heuristics.
func categorize(status int, body, location string) (Category, string) {
	if status >= 300 && status < 400 && location != "" {
		return CatRedirect, registrable(location)
	}
	lower := strings.ToLower(body)
	switch {
	case strings.Contains(lower, "domain is parked") ||
		strings.Contains(lower, "parked free") ||
		strings.Contains(lower, "related searches"):
		return CatParked, ""
	case strings.Contains(lower, "for sale") ||
		strings.Contains(lower, "make an offer") ||
		strings.Contains(lower, "buy this domain"):
		return CatForSale, ""
	case strings.TrimSpace(body) == "":
		return CatEmpty, ""
	case status >= 400:
		return CatError, ""
	default:
		return CatNormal, ""
	}
}

// registrable extracts the registrable domain from a Location value.
func registrable(location string) string {
	u, err := url.Parse(location)
	if err != nil || u.Host == "" {
		return strings.Trim(location, "/")
	}
	host := u.Host
	if h, _, err := net.SplitHostPort(host); err == nil {
		host = h
	}
	return strings.ToLower(host)
}

// classifyRedirect decides the Table 13 class of a redirect.
func (c *Classifier) classifyRedirect(domain, target string) RedirectClass {
	if c.IsMalicious != nil && c.IsMalicious(target) {
		return RedirMalicious
	}
	if c.Reverter != nil {
		if original, ok := c.Reverter(domain); ok && strings.EqualFold(original, target) {
			return RedirBrand
		}
	}
	return RedirLegit
}

// ClassifyBatch classifies every domain concurrently, preserving
// order.
func (c *Classifier) ClassifyBatch(domains []string) []Result {
	workers := c.Workers
	if workers <= 0 {
		workers = 32
	}
	results := make([]Result, len(domains))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, d := range domains {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, d string) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = c.Classify(d)
		}(i, d)
	}
	wg.Wait()
	return results
}

// Tally aggregates results by category (Table 12) and redirect class
// (Table 13).
type Tally struct {
	ByCategory map[Category]int
	ByRedirect map[RedirectClass]int
}

// TallyResults counts categories across results.
func TallyResults(results []Result) Tally {
	t := Tally{
		ByCategory: make(map[Category]int),
		ByRedirect: make(map[RedirectClass]int),
	}
	for _, r := range results {
		t.ByCategory[r.Category]++
		if r.Category == CatRedirect && r.RedirectClass != RedirUnknown {
			t.ByRedirect[r.RedirectClass]++
		}
	}
	return t
}
