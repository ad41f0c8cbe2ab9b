// Browser warning: the paper's Section 7.2 countermeasure as a working
// HTTP forward proxy. Instead of forcibly rewriting IDNs to Punycode
// (what Chrome and Firefox do, destroying the human-readable name),
// the proxy intercepts requests whose Host is an IDN homograph of a
// protected brand and serves the Figure 12 interstitial: the Unicode
// name with the substituted characters called out, and both "continue"
// and "go to the real site" links.
//
//	go run ./examples/browser-warning [-addr 127.0.0.1:8080]
//
// Try it (the proxy answers directly, so plain curl works):
//
//	curl -s 'http://127.0.0.1:8080/?host=xn--ggle-0nda.com'
package main

import (
	"flag"
	"fmt"
	"html"
	"log"
	"net/http"
	"strings"

	"repro"
)

// protectedBrands is the reference list the proxy guards. A deployment
// would load the Alexa top sites or the enterprise's own domains.
var protectedBrands = []string{
	"google", "gmail", "youtube", "facebook", "amazon",
	"paypal", "binance", "myetherwallet", "wikipedia",
}

// proxy holds the detection state behind a hot-swappable Engine: a
// long-running interceptor must absorb brand-list updates without a
// restart (the seed version froze a Detector at startup — adding a
// brand meant rebuilding the world and bouncing the proxy).
type proxy struct {
	fw     *shamfinder.Framework
	engine *shamfinder.Engine
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	once := flag.Bool("demo", false, "serve one built-in demo request and exit (no listener)")
	flag.Parse()

	log.Println("building homoglyph database...")
	fw, err := shamfinder.New(shamfinder.Config{FontScope: shamfinder.FontFast})
	if err != nil {
		log.Fatal(err)
	}
	p := &proxy{fw: fw, engine: fw.NewEngine(protectedBrands)}

	if *once {
		fmt.Println(p.renderDemo("xn--ggle-0nda.com"))
		return
	}
	log.Printf("listening on http://%s — try /?host=xn--ggle-0nda.com", *addr)
	log.Fatal(http.ListenAndServe(*addr, p))
}

// ServeHTTP inspects the requested host (from the URL in proxy mode or
// the ?host= parameter in demo mode) and either passes the request
// through or serves the interstitial.
func (p *proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.URL.Query().Get("host")
	if host == "" {
		host = r.Host
	}
	matches := p.inspect(host)
	if len(matches) == 0 {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%s is not a homograph of a protected brand; passing through.\n", host)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, p.interstitial(host, matches[0]))
}

// inspect returns homograph matches for the host, scanned as a full
// domain: any TLD, any label depth, so xn--ggle-0nda.net and
// www.xn--ggle-0nda.co.uk are inspected as readily as the .com form.
func (p *proxy) inspect(host string) []shamfinder.Match {
	name := host
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	// One atomic engine load per request: a brand-list swap (e.g.
	// p.engine.Rebuild(updatedBrands) from an admin endpoint) lands
	// between requests, never mid-inspection.
	return p.engine.Detector().DetectDomainBackend(strings.ToLower(name), shamfinder.BackendPostings)
}

// interstitial renders the Figure 12 warning page.
func (p *proxy) interstitial(host string, m shamfinder.Match) string {
	warning := p.fw.Warn(m)
	var subs strings.Builder
	for _, d := range m.Diffs {
		subs.WriteString(fmt.Sprintf(
			"<li><span class=glyph>%s</span> U+%04X imitates <span class=glyph>%s</span> U+%04X</li>",
			html.EscapeString(string(d.Got)), d.Got,
			html.EscapeString(string(d.Want)), d.Want))
	}
	real := m.Imitated() // the reference under the TLD actually accessed
	return fmt.Sprintf(`<!doctype html>
<html><head><meta charset="utf-8"><title>Warning — possible homograph</title>
<style>
body{font-family:sans-serif;max-width:40em;margin:3em auto}
.box{border:3px solid #c00;border-radius:8px;padding:1.5em}
.glyph{font-size:1.4em;background:#fee;padding:0 .2em;border-radius:3px}
a.real{background:#080;color:#fff;padding:.5em 1em;border-radius:4px;text-decoration:none}
a.risky{color:#c00}
</style></head><body>
<div class=box>
<h1>⚠ Use of homoglyph detected</h1>
<p>You are accessing <b>%s</b> (<code>%s</code>).<br>Did you mean <b>%s</b>?</p>
<ul>%s</ul>
<p><a class=real href="https://%s/">Go to %s</a> &nbsp;
<a class=risky href="https://%s/?confirmed=1">Continue to %s anyway</a></p>
</div>
<pre>%s</pre>
</body></html>`,
		html.EscapeString(m.Unicode), html.EscapeString(host),
		html.EscapeString(real), subs.String(),
		html.EscapeString(real), html.EscapeString(real),
		html.EscapeString(host), html.EscapeString(m.Unicode),
		html.EscapeString(warning.Text()))
}

// renderDemo produces the interstitial for one hard-coded host,
// letting the example run without binding a port.
func (p *proxy) renderDemo(host string) string {
	matches := p.inspect(host)
	if len(matches) == 0 {
		return host + ": no homograph detected"
	}
	return p.interstitial(host, matches[0])
}
