package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dnsserver"
	"repro/internal/dnswire"
	"repro/internal/jobstore"
	"repro/internal/punycode"
	"repro/internal/service"
	"repro/internal/triage"
	"repro/internal/websim"
)

// TestSurveyCLIMatchesAPI: `survey` and a /v1/survey job build their
// pipelines through one triage.Spec, so over the same candidates, DNS
// server, web hosts and blacklist set, with the web stage on and no
// parking suffixes, their record logs are byte-identical. The inputs
// cover every web outcome a record carries, among them a redirect to
// the imitated brand, which both surfaces classify as brand protection.
func TestSurveyCLIMatchesAPI(t *testing.T) {
	ace := func(label string) string {
		a, err := punycode.ToASCIILabel(label)
		if err != nil {
			t.Fatal(err)
		}
		return a + ".com"
	}
	var (
		brand   = ace("gооgle")   // redirects to google.com
		listed  = ace("fаcebook") // a normal site on the hpHosts feed
		elsewh  = ace("аmazon")   // redirects to an unrelated site
		nsOnly  = ace("gоogle")   // delegated, no address
		missing = ace("faсebook") // not in the zone
	)
	store := dnsserver.NewStore()
	store.AddApex("com.")
	store.Add(dnswire.Record{Name: "com.", Class: dnswire.ClassIN, TTL: 900, Data: dnswire.SOA{
		MName: "a.gtld-servers.net.", RName: "nstld.example.",
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}})
	for _, name := range []string{brand, listed, elsewh, nsOnly} {
		store.Add(dnswire.Record{Name: name + ".", Class: dnswire.ClassIN, TTL: 300, Data: dnswire.NS{Host: "ns1." + name + "."}})
		if name != nsOnly {
			store.Add(dnswire.Record{Name: name + ".", Class: dnswire.ClassIN, TTL: 300, Data: dnswire.A{Addr: netip.MustParseAddr("127.0.0.1")}})
		}
	}
	dns := dnsserver.NewServer(store)
	if err := dns.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dns.Close()
	web := websim.NewServer()
	if err := web.Start(); err != nil {
		t.Fatal(err)
	}
	defer web.Close()
	web.SetSite(brand, websim.Site{Kind: "redirect", RedirectTarget: "google.com"})
	web.SetSite(listed, websim.Site{Kind: "normal", Title: "listed"})
	web.SetSite(elsewh, websim.Site{Kind: "redirect", RedirectTarget: "example.org"})

	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	refs := write("refs.txt", "google.com\nfacebook.com\namazon.com\n")
	candidates := []string{brand, "plain.com", listed, elsewh, nsOnly, missing}
	zone := write("zone.txt", strings.Join(candidates, "\n")+"\n")
	hp := write("hphosts.txt", "127.0.0.1 "+listed+"\n")

	out := filepath.Join(dir, "cli.jsonl")
	if err := cmdSurvey([]string{
		"-fastfont", "-refs", refs, "-domains", zone, "-resolver", dns.Addr(),
		"-http-addr", web.HTTPAddr(), "-https-addr", web.HTTPSAddr(), "-blacklist", "hphosts=" + hp, "-o", out,
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(cli, []byte(`"redirect_class":"Brand protection"`)) || bytes.Count(cli, []byte("\n")) != 5 {
		t.Fatalf("CLI records lack the brand redirect or a homograph:\n%s", cli)
	}

	fw, det, err := shamfinder.Resolve("", refs, builder(true, "both"), true)
	if err != nil {
		t.Fatal(err)
	}
	feeds, err := parseBlacklistFlags([]string{"hphosts=" + hp})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.New(service.Config{
		Engine: core.NewEngine(core.NewDetector(fw.DB(), det.References())),
		Survey: service.SurveyConfig{
			Resolve: func(domain string, port int) string {
				if port == 443 {
					return web.HTTPSAddr()
				}
				return web.HTTPAddr()
			},
			Blacklists: feeds,
		},
	}))
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"fqdns": candidates, "resolver": dns.Addr()})
	resp, err := http.Post(ts.URL+"/v1/survey", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var acc struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", resp.StatusCode, err)
	}
	var st struct {
		Status  string
		Records []triage.Record
	}
	for deadline := time.Now().Add(30 * time.Second); !jobstore.Terminal(st.Status); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("survey job did not finish")
		}
		resp, err := http.Get(ts.URL + "/v1/survey/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	var api bytes.Buffer
	if err := triage.WriteRecords(&api, st.Records); err != nil {
		t.Fatal(err)
	}
	if st.Status != jobstore.StateDone || !bytes.Equal(api.Bytes(), cli) {
		t.Fatalf("job %s; /v1/survey records\n%s\nsurvey records\n%s", st.Status, api.Bytes(), cli)
	}
}
