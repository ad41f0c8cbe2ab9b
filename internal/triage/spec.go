package triage

import (
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/blacklist"
	"repro/internal/dnsclient"
	"repro/internal/domain"
	"repro/internal/homoglyph"
	"repro/internal/punycode"
	"repro/internal/webclassify"
)

// Spec is the replayable half of a survey: every knob that shapes its
// pipeline, as `shamfinder survey` flags, a /v1/survey request and a
// durable job's manifest all carry it. It excludes the candidate list
// (a manifest carries the post-detection inputs instead, so a resume
// never re-detects against a newer engine epoch). Zero values mean the
// defaults Config documents.
type Spec struct {
	Resolver  string `json:"resolver,omitempty"`
	Transport string `json:"dns_transport,omitempty"`
	// Backend names the detection backend the detect stage ran with
	// ("postings", "skeleton", "both"); recorded so a replayed manifest
	// shows how its inputs were selected.
	Backend    string  `json:"backend,omitempty"`
	DNSWorkers int     `json:"dns_workers,omitempty"`
	WebWorkers int     `json:"web_workers,omitempty"`
	Rate       float64 `json:"rate,omitempty"`
	// Retries is how many extra attempts a failed DNS probe gets: nil
	// means the default of 1, and 0 or a negative value means none.
	Retries        *int `json:"retries,omitempty"`
	StageTimeoutMS int  `json:"stage_timeout_ms,omitempty"`
	DNSTimeoutMS   int  `json:"dns_timeout_ms,omitempty"`
	WebTimeoutMS   int  `json:"web_timeout_ms,omitempty"`
	SkipDNS        bool `json:"skip_dns,omitempty"`
	SkipWeb        bool `json:"skip_web,omitempty"`
	SkipBlacklist  bool `json:"skip_blacklist,omitempty"`
}

// Config builds the pipeline config s describes: a DNS client on s's
// resolver and transport whose own retransmits are off, since Retries
// is the one retry knob; the web classifier; and the stage switches.
// The caller supplies what a spec cannot carry: resolve says where web
// fetches dial (nil dials the domain), userAgent is sent on every
// fetch, feeds is the blacklist set (nil skips that stage), parkingNS
// lists the parking providers' NS suffixes, and db reverts a redirect's
// source so a redirect to the imitated brand classifies as brand
// protection (nil leaves that class unused). The caller closes the
// returned config's DNS client.
func (s Spec) Config(resolve webclassify.Resolver, userAgent string, feeds *blacklist.Set, parkingNS []string, db *homoglyph.DB) (Config, error) {
	ms := func(v, def int) time.Duration {
		if v <= 0 {
			v = def
		}
		return time.Duration(v) * time.Millisecond
	}
	cfg := Config{
		DNSWorkers:    s.DNSWorkers,
		WebWorkers:    s.WebWorkers,
		RateLimit:     s.Rate,
		StageTimeout:  ms(s.StageTimeoutMS, 15000),
		ParkingNS:     parkingNS,
		SkipDNS:       s.SkipDNS,
		SkipWeb:       s.SkipWeb,
		SkipBlacklist: s.SkipBlacklist || feeds == nil,
		Blacklists:    feeds,
	}
	if s.Retries != nil {
		// Config's own zero means the default; none is negative.
		if cfg.Retries = *s.Retries; cfg.Retries == 0 {
			cfg.Retries = -1
		}
	}
	if !s.SkipDNS {
		if _, _, err := net.SplitHostPort(s.Resolver); err != nil {
			return cfg, fmt.Errorf("bad resolver %q: %v", s.Resolver, err)
		}
		transport, err := dnsclient.ParseTransport(s.Transport)
		if err != nil {
			return cfg, fmt.Errorf("bad dns_transport %q: %v", s.Transport, err)
		}
		client := dnsclient.New(s.Resolver)
		client.Transport = transport
		client.Timeout = ms(s.DNSTimeoutMS, 2000)
		client.Retries = 0
		cfg.DNS = client
	}
	if !s.SkipWeb {
		if resolve == nil {
			resolve = func(domain string, port int) string {
				return net.JoinHostPort(domain, strconv.Itoa(port))
			}
		}
		classifier := &webclassify.Classifier{
			Resolve:   resolve,
			Timeout:   ms(s.WebTimeoutMS, 3000),
			UserAgent: userAgent,
		}
		if db != nil {
			classifier.Reverter = func(fqdn string) (string, bool) { return RevertDomain(db, fqdn) }
		}
		if feeds != nil {
			classifier.IsMalicious = feeds.AnyContains
		}
		cfg.Classifier = classifier
	}
	return cfg, nil
}

// RevertDomain maps a homograph FQDN (ACE or Unicode form) to the
// domain it plausibly imitates under db: the registrable label is
// decoded, every homoglyph is replaced by its canonical character, and
// the public suffix is reattached — "www.xn--ggle-55da.co.uk" →
// "google.co.uk". It reports false when the registrable label does not
// decode. Brand-redirect classification and `shamfinder revert` share
// it.
func RevertDomain(db *homoglyph.DB, fqdn string) (string, bool) {
	label, tld := domain.Registrable(fqdn)
	uni, err := punycode.ToUnicodeLabel(label)
	if err != nil {
		return "", false
	}
	reverted := db.Revert(uni)
	if tld != "" {
		reverted += "." + tld
	}
	return reverted, true
}
