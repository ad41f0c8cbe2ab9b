package triage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blacklist"
	"repro/internal/confusables"
	"repro/internal/homoglyph"
)

// countingBlackholeUDP is a resolver that never answers and counts the
// queries it receives.
func countingBlackholeUDP(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var n atomic.Int64
	go func() {
		buf := make([]byte, 64*1024)
		for {
			if _, _, err := conn.ReadFrom(buf); err != nil {
				return
			}
			n.Add(1)
		}
	}()
	return conn.LocalAddr().String(), &n
}

// TestSpecRetries: Retries counts extra probe attempts with an explicit
// zero meaning none, as `survey -retries 0` and "retries":0 both ask;
// nil keeps the default of one retry, and a negative value also means
// none. The DNS client's own retransmits stay off, so every attempt is
// one round of queries at the resolver.
func TestSpecRetries(t *testing.T) {
	zero, neg, two := 0, -3, 2
	queries := func(retries *int) int64 {
		addr, n := countingBlackholeUDP(t)
		cfg, err := Spec{Resolver: addr, Retries: retries, DNSTimeoutMS: 20, SkipWeb: true}.Config(nil, "", nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cfg.DNS.Close()
		if cfg.DNS.Retries != 0 {
			t.Fatalf("client retransmits = %d, want 0", cfg.DNS.Retries)
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := p.Run(context.Background(), []Input{{FQDN: "xn--ggle-55da.com"}})
		if err != nil || len(recs) != 1 || recs[0].DNSError == "" {
			t.Fatalf("records = %+v, err %v; want one DNS error", recs, err)
		}
		// The listener may still be reading the last datagram.
		time.Sleep(20 * time.Millisecond)
		return n.Load()
	}
	one := queries(&zero)
	if one == 0 {
		t.Fatal("no query reached the resolver")
	}
	for _, c := range []struct {
		name     string
		retries  *int
		attempts int64
	}{{"nil", nil, 2}, {"negative", &neg, 1}, {"two", &two, 3}} {
		if got := queries(c.retries); got != c.attempts*one {
			t.Errorf("retries %s: %d queries, want %d attempts of %d", c.name, got, c.attempts, one)
		}
	}
}

// TestSpecConfig pins the builder's mapping: millisecond knobs with
// their defaults, the stage switches, the resolver and transport
// checks, and the classifier's reverter, User-Agent and blacklist hook.
func TestSpecConfig(t *testing.T) {
	cfg, err := Spec{SkipDNS: true, SkipWeb: true}.Config(nil, "", nil, nil, nil)
	if err != nil || cfg.DNS != nil || cfg.Classifier != nil || !cfg.SkipBlacklist || cfg.StageTimeout != 15*time.Second {
		t.Fatalf("skip-all config = %+v, err %v", cfg, err)
	}

	feeds := &blacklist.Set{HpHosts: blacklist.NewFeed("hpHosts"), GSB: blacklist.NewFeed("GSB"), Symantec: blacklist.NewFeed("Symantec")}
	feeds.HpHosts.Add("bad.example")
	db := homoglyph.New(confusables.Default(), nil, 0)
	spec := Spec{
		Resolver: "127.0.0.1:53", Transport: "tcp", DNSWorkers: 3, WebWorkers: 5, Rate: 7,
		StageTimeoutMS: 900, DNSTimeoutMS: 40, WebTimeoutMS: 60,
	}
	cfg, err = spec.Config(nil, "probe/1", feeds, []string{"parking.example"}, db)
	if err != nil {
		t.Fatal(err)
	}
	defer cfg.DNS.Close()
	if cfg.DNSWorkers != 3 || cfg.WebWorkers != 5 || cfg.RateLimit != 7 || cfg.StageTimeout != 900*time.Millisecond ||
		cfg.Retries != 0 || cfg.SkipBlacklist || cfg.Blacklists != feeds || len(cfg.ParkingNS) != 1 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.DNS.Server != "127.0.0.1:53" || cfg.DNS.Transport != "tcp" || cfg.DNS.Timeout != 40*time.Millisecond {
		t.Fatalf("client = %+v", cfg.DNS)
	}
	c := cfg.Classifier
	if c.Timeout != 60*time.Millisecond || c.UserAgent != "probe/1" || c.Resolve("a.example", 443) != "a.example:443" {
		t.Fatalf("classifier = %+v", c)
	}
	if orig, ok := c.Reverter("www.xn--ggle-55da.co.uk"); !ok || orig != "google.co.uk" {
		t.Fatalf("reverter = %q, %v", orig, ok)
	}
	if !c.IsMalicious("bad.example") || c.IsMalicious("good.example") {
		t.Fatal("IsMalicious does not consult the feeds")
	}
	if cfg, err := (Spec{SkipDNS: true}).Config(nil, "", nil, nil, nil); err != nil || cfg.Classifier.Reverter != nil {
		t.Fatalf("without a DB the classifier must not revert (err %v)", err)
	}

	for _, bad := range []Spec{{Resolver: "no-port"}, {Resolver: ""}, {Resolver: "127.0.0.1:53", Transport: "carrier-pigeon"}} {
		if _, err := bad.Config(nil, "", nil, nil, nil); err == nil {
			t.Errorf("%+v: want an error", bad)
		}
	}
}

// FuzzReadRecords: the record-log reader behind -resume checkpoints and
// durable job logs never panics, and a log RecordWriter wrote, cut at
// any byte as a crash leaves it, reads back without error as a prefix
// of the written records. The records written are derived from the
// input's first lines, the last of which holds the rest.
func FuzzReadRecords(f *testing.F) {
	valid := `{"fqdn":"xn--ggle-55da.com","reference":"google.com","source":"UC","has_ns":true,"has_a":true,"has_mx":false,"ns_hosts":["ns1.example"],"category":"Normal","status_http":200}` + "\n" +
		`{"fqdn":"xn--fcebook-2fg.com","has_ns":false,"has_a":false,"has_mx":false,"dns_error":"timeout"}` + "\n"
	for _, seed := range []struct {
		log string
		cut uint32
	}{
		{valid, 0},
		{valid + `{"fqdn":"xn--c`, 100},       // torn last line
		{`{"fqdn":"xn--c` + "\n" + valid, 37}, // torn middle line
		{"\n\n" + valid + "\n\n", 250},        // blank lines
		{`{"fqdn":"` + strings.Repeat("a", 70<<10) + `"}` + "\n" + valid, 1 << 16}, // a line over 64 KiB
		{"", 0},
	} {
		f.Add([]byte(seed.log), seed.cut)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint32) {
		ReadRecords(bytes.NewReader(data)) // must not panic

		var written []Record
		for i, line := range strings.SplitN(string(data), "\n", 16) {
			written = append(written, Record{
				FQDN: line, Reference: line, HasNS: i%2 == 0, HasA: i%3 == 0,
				NSHosts: []string{line}, Category: line, StatusHTTP: i,
			})
		}
		var log bytes.Buffer
		rw := NewRecordWriter(&log)
		for _, rec := range written {
			if err := rw.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		torn := log.Bytes()[:int(cut)%(log.Len()+1)]
		got, err := ReadRecords(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("log cut at byte %d of %d: %v", len(torn), log.Len(), err)
		}
		complete := bytes.Count(torn, []byte("\n"))
		if len(got) < complete || len(got) > complete+1 || len(got) > len(written) {
			t.Fatalf("log cut after %d complete lines read %d records", complete, len(got))
		}
		for i, rec := range got {
			// JSON folds invalid UTF-8 to U+FFFD, so the written record
			// is compared as it decodes.
			var want Record
			line, _ := json.Marshal(written[i])
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatal(err)
			}
			if a, b := fmt.Sprintf("%+v", rec), fmt.Sprintf("%+v", want); a != b {
				t.Fatalf("record %d read back as %s, written %s", i, a, b)
			}
		}
	})
}
