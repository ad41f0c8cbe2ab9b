// Command shamfinder is the framework's CLI: detect IDN homographs in
// a domain list, serve detection as a long-running hot-swappable HTTP
// service, explain a single suspicious domain, revert a homograph to
// its plausible original, dump homoglyphs of a character, or compile
// the built databases into a binary snapshot so later runs cold-start
// in milliseconds instead of rebuilding the font + SimChar + UC
// pipeline.
//
// Usage:
//
//	shamfinder compile -o shamfinder.snap [-refs refs.txt] [-db uc|simchar|both]
//	shamfinder serve -snapshot shamfinder.snap [-addr 127.0.0.1:8080] [-watch 2s]
//	shamfinder detect -refs refs.txt [-domains zone.txt] [-db uc|simchar|both] [-workers N] [-json]
//	shamfinder detect -snapshot shamfinder.snap [-domains zone.txt]
//	shamfinder explain -refs refs.txt xn--ggle-55da.com
//	shamfinder revert xn--ggle-55da.com
//	shamfinder glyphs o
//
// refs.txt holds one reference domain per line (Alexa-style "rank,domain"
// CSV also accepted); references index on their registrable label, so
// amazon.co.uk protects "amazon" just as google.com protects "google".
// The domain list is read from -domains or stdin and may span any mix
// of TLDs — .com, .net, co.uk-style multi-label suffixes, ACE/IDN TLDs
// like xn--p1ai — with any label count per name. Detected domains are
// echoed in normalized form (lowercased, root dot dropped): the feeder
// lowercases lines in place and retains nothing per line, which is what
// keeps ingestion allocation-free at zone scale.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/blacklist"
	"repro/internal/homoglyph"
	"repro/internal/service"
	"repro/internal/triage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "compile":
		err = cmdCompile(args)
	case "serve":
		err = cmdServe(args)
	case "detect":
		err = cmdDetect(args)
	case "survey":
		err = cmdSurvey(args)
	case "watch-zone":
		err = cmdWatchZone(args)
	case "explain":
		err = cmdExplain(args)
	case "revert":
		err = cmdRevert(args)
	case "glyphs":
		err = cmdGlyphs(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shamfinder:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  shamfinder compile -o FILE [-refs FILE] [-db uc|simchar|both] [-fastfont]
  shamfinder serve   {-refs FILE | -snapshot FILE} [-addr HOST:PORT] [-watch DUR] [-max-inflight N] [-job-dir DIR]
                     [-survey-ttl DUR] [-survey-keep N] [-survey-stall DUR] [-backend postings|skeleton|both]
                     [-db uc|simchar|both] [-fastfont]
  shamfinder detect  {-refs FILE | -snapshot FILE} [-domains FILE] [-backend postings|skeleton|both]
                     [-db uc|simchar|both] [-fastfont] [-workers N] [-json]
  shamfinder survey  {-matches FILE | {-refs FILE | -snapshot FILE} [-domains FILE]} -resolver HOST:PORT
                     [-dns-transport udp|tcp|dot|doh] [-dns-workers N] [-web-workers N] [-rate QPS] [-retries N]
                     [-stage-timeout DUR] [-dns-timeout DUR] [-backend postings|skeleton|both]
                     [-skip-dns] [-skip-web] [-blacklist NAME=FILE ...] [-parking-ns LIST]
                     [-http-addr HOST:PORT] [-https-addr HOST:PORT] [-o FILE.jsonl] [-resume FILE.jsonl] [-table]
  shamfinder watch-zone -zone FILE -state DIR {-refs FILE | -snapshot FILE} [-deltas FILE] [-interval DUR] [-once]
                     [-resolver HOST:PORT] [-dns-transport udp|tcp|dot|doh] [-addr HOST:PORT] [-throttle LPS] [-checkpoint-every N]
                     [-min-zone-fraction F] [-survey-jobs DIR] [-survey-batch N] [-survey-age DUR]
                     [-survey-stall DUR] [-survey-skip-web] [-db uc|simchar|both] [-fastfont]
  shamfinder watch-zone -status -addr HOST:PORT
  shamfinder explain {-refs FILE | -snapshot FILE} [-fastfont] DOMAIN
  shamfinder revert  [-snapshot FILE] [-fastfont] DOMAIN
  shamfinder glyphs  [-snapshot FILE] [-fastfont] CHAR

domain lists may span any TLD (.com, .net, co.uk, xn--p1ai, ...); full
FQDNs are scanned label-aware and references index on their registrable
label (amazon.co.uk protects "amazon").

-backend selects the detection backend: postings (Algorithm 1's
pairwise check, pinpoints each substituted character), skeleton (the TR39
whole-label prototype map, catches many-to-one homographs like
rnicrosoft/vvikipedia that no same-length comparison can see — and
therefore scans pure-ASCII names too), or both (the union, each match
tagged with the backend(s) that found it).

serve exposes the hot-swappable engine as an HTTP JSON API (POST
/v1/detect, GET /v1/explain, POST /v1/reload, POST /v1/survey, GET
/healthz, GET /metrics); -watch polls the snapshot file and swaps new
state in with zero downtime. -job-dir makes survey jobs durable: every
job persists a manifest and record log, a killed process resumes its
interrupted jobs byte-identically on restart, and corrupt state is
quarantined, never silently served.

survey runs the measurement pipeline (paper §5–6) over detected
homographs: DNS probing against -resolver, web classification of the
resolvable set, and blacklist coverage, streaming one JSONL record per
domain. -dns-transport selects how probes travel: udp (pooled sockets,
the default), tcp (pipelined keep-alive pool), dot (DNS over TLS) or
doh (DNS over HTTPS/2); every transport produces identical records. Input is either a match file (-matches: one FQDN per line,
optionally TAB-separated reference and source columns) or a domain
list (-domains/stdin) detected on the fly. -resume loads a previous
run's JSONL output and skips already-probed domains; the rewritten
output is byte-identical to an uninterrupted run.

watch-zone polls a zone file and streams each new generation against a
durable seen-set, appending only the added FQDNs to the deltas journal
(detections carry the imitated reference); a SIGKILL at any point
resumes from the checkpoint with no duplicated and no dropped deltas.
-resolver probes additions for NS/A/MX; -addr serves /metrics with the
watcher's health; -once runs a single scan for cron. -survey-jobs
closes the monitoring loop: journal deltas batch into durable survey
jobs (each recording the journal span it covers, so restarts re-submit
nothing) and /metrics carries the continuously merged survey tally.`)
}

func buildConfig(fast bool, db string) (shamfinder.Config, error) {
	cfg := shamfinder.Config{}
	if fast {
		cfg.FontScope = shamfinder.FontFast
	}
	switch strings.ToLower(db) {
	case "", "both":
		cfg.Sources = shamfinder.SourceBoth
	case "uc":
		cfg.Sources = shamfinder.SourceUC
	case "simchar":
		cfg.Sources = shamfinder.SourceSimChar
	default:
		return cfg, fmt.Errorf("unknown -db %q (want uc, simchar or both)", db)
	}
	return cfg, nil
}

// builder defers the framework build until shamfinder.Resolve finds
// no snapshot: with -snapshot the database is baked in, and -db and
// -fastfont are ignored.
func builder(fast bool, db string) func() (*shamfinder.Framework, error) {
	return func() (*shamfinder.Framework, error) {
		cfg, err := buildConfig(fast, db)
		if err != nil {
			return nil, err
		}
		return shamfinder.New(cfg)
	}
}

// cmdCompile builds the databases once and persists the compiled
// artifacts; every later run loads them in milliseconds.
func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	out := fs.String("o", "shamfinder.snap", "output snapshot path")
	refsPath := fs.String("refs", "", "embed a detector for this reference list (optional)")
	db := fs.String("db", "both", "homoglyph database: uc, simchar or both")
	fast := fs.Bool("fastfont", false, "skip CJK/Hangul font generation")
	fs.Parse(args)
	// A detector is embedded exactly when a list is named.
	fw, det, err := shamfinder.Resolve("", *refsPath, builder(*fast, *db), *refsPath != "")
	if err != nil {
		return err
	}
	nrefs := 0
	if det != nil {
		nrefs = len(det.References())
	}
	if err := fw.SaveSnapshot(*out, det); err != nil {
		return fmt.Errorf("writing %s: %w", *out, err)
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "compiled %s: %d bytes, %d homoglyph chars, %d references\n",
		*out, st.Size(), fw.DB().Chars().Len(), nrefs)
	return nil
}

// cmdServe runs the long-lived detection service: the hot-swappable
// engine behind the HTTP JSON API, with optional snapshot watching.
// Ctrl-C / SIGTERM drains in-flight requests and exits cleanly.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	snapPath := fs.String("snapshot", "", "cold-start from a compiled snapshot (and the -watch reload source)")
	refsPath := fs.String("refs", "", "reference domain list (overrides the snapshot's embedded detector)")
	watch := fs.Duration("watch", 0, "poll the snapshot file at this interval and hot-swap on change (e.g. 2s); 0 = off")
	db := fs.String("db", "both", "homoglyph database when building fresh: uc, simchar or both")
	fast := fs.Bool("fastfont", false, "skip CJK/Hangul font generation when building fresh")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent detection requests before shedding; 0 = default")
	jobDir := fs.String("job-dir", "", "persist /v1/survey jobs here; interrupted jobs resume byte-identically on restart")
	surveyTTL := fs.Duration("survey-ttl", 0, "evict finished survey jobs this long after they finish; 0 = no TTL")
	surveyKeep := fs.Int("survey-keep", 0, "max retained finished survey jobs; 0 = 32")
	surveyStall := fs.Duration("survey-stall", 0, "fail a survey job whose pipeline freezes this long; 0 = no watchdog")
	backend := fs.String("backend", "", "default detection backend: postings (default), skeleton or both")
	fs.Parse(args)
	if *watch > 0 && *snapPath == "" {
		return fmt.Errorf("serve: -watch needs -snapshot (it polls the snapshot file)")
	}
	be, err := shamfinder.ParseBackend(*backend)
	if err != nil {
		return err
	}
	cfg, err := buildConfig(*fast, *db)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := log.New(os.Stderr, "shamfinder: ", log.LstdFlags)
	return shamfinder.Serve(ctx, shamfinder.ServeOptions{
		Addr:         *addr,
		SnapshotPath: *snapPath,
		RefsPath:     *refsPath,
		Watch:        *watch,
		Build:        cfg,
		MaxInFlight:  *maxInFlight,
		Backend:      be,
		JobDir:       *jobDir,
		SurveyTTL:    *surveyTTL,
		SurveyKeep:   *surveyKeep,
		SurveyStall:  *surveyStall,
		Logf:         logger.Printf,
	})
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	refsPath := fs.String("refs", "", "reference domain list")
	snapPath := fs.String("snapshot", "", "load a compiled snapshot instead of building")
	domainsPath := fs.String("domains", "", "domain list to scan; empty = stdin")
	db := fs.String("db", "both", "homoglyph database: uc, simchar or both")
	fast := fs.Bool("fastfont", false, "skip CJK/Hangul font generation")
	workers := fs.Int("workers", 0, "detection workers; 0 = GOMAXPROCS")
	jsonOut := fs.Bool("json", false, "emit one JSON object per match (the serve API's wire format)")
	backend := fs.String("backend", "", "detection backend: postings (default), skeleton or both")
	fs.Parse(args)
	be, err := shamfinder.ParseBackend(*backend)
	if err != nil {
		return err
	}
	_, det, err := shamfinder.Resolve(*snapPath, *refsPath, builder(*fast, *db), true)
	if err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if *domainsPath != "" {
		f, err := os.Open(*domainsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	matches, scanned, err := det.DetectLines(in, *workers, be)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if *jsonOut {
		// One JSON object per match, in the exact wire format the serve
		// API's /v1/detect responds with (service.Match) — downstream
		// tooling parses one shape whether it scraped the CLI or the
		// HTTP endpoint.
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		for _, m := range matches {
			if err := enc.Encode(service.NewMatch(m)); err != nil {
				return err
			}
		}
	} else {
		for _, m := range matches {
			// The matched FQDN as seen in the zone, the decoded label,
			// the imitated domain under the zone's own suffix — no TLD
			// is assumed — the backend that found it, and the diffs.
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", m.FQDN, m.Unicode, m.Imitated(), m.Backend, diffsText(m))
		}
	}
	fmt.Fprintf(os.Stderr, "scanned %d IDNs, detected %d homograph matches\n", scanned, len(matches))
	return nil
}

func diffsText(m shamfinder.Match) string {
	parts := make([]string, len(m.Diffs))
	for i, d := range m.Diffs {
		parts[i] = d.String()
	}
	return strings.Join(parts, ",")
}

// cmdSurvey runs the measurement half of the framework (paper §5–6)
// as one streaming pipeline: detected homographs → DNS probing → web
// classification of the resolvable set → blacklist coverage, one
// JSONL record per domain, flushed as produced so the output doubles
// as a checkpoint.
func cmdSurvey(args []string) error {
	fs := flag.NewFlagSet("survey", flag.ExitOnError)
	refsPath := fs.String("refs", "", "reference domain list (for -domains detection and homograph reversion)")
	snapPath := fs.String("snapshot", "", "load a compiled snapshot instead of building")
	domainsPath := fs.String("domains", "", "domain list to detect then survey; empty = stdin (ignored with -matches)")
	matchesPath := fs.String("matches", "", "pre-detected match file: FQDN per line, optional TAB-separated reference and source columns")
	db := fs.String("db", "both", "homoglyph database: uc, simchar or both")
	fast := fs.Bool("fastfont", false, "skip CJK/Hangul font generation")
	workers := fs.Int("workers", 0, "detection workers; 0 = GOMAXPROCS")
	resolver := fs.String("resolver", "", "DNS server HOST:PORT to probe (required unless -skip-dns)")
	dnsTransport := fs.String("dns-transport", "udp", "probing transport: udp, tcp, dot or doh")
	dnsWorkers := fs.Int("dns-workers", 16, "concurrent DNS probes")
	webWorkers := fs.Int("web-workers", 16, "concurrent web fetches")
	rate := fs.Float64("rate", 0, "max DNS probes per second across workers; 0 = unlimited")
	retries := fs.Int("retries", 1, "extra attempts per failed DNS probe; 0 or negative = none")
	stageTimeout := fs.Duration("stage-timeout", 15*time.Second, "per-domain ceiling in one pipeline stage")
	dnsTimeout := fs.Duration("dns-timeout", 2*time.Second, "per-attempt DNS query timeout")
	webTimeout := fs.Duration("web-timeout", 3*time.Second, "per-fetch HTTP timeout")
	skipDNS := fs.Bool("skip-dns", false, "skip the DNS stage (web-classify everything)")
	skipWeb := fs.Bool("skip-web", false, "skip the web classification stage")
	var blacklistSpecs []string
	fs.Func("blacklist", "NAME=FILE hosts-format feed (hphosts, gsb or symantec; repeatable); none = skip the blacklist stage",
		func(v string) error { blacklistSpecs = append(blacklistSpecs, v); return nil })
	parkingNS := fs.String("parking-ns", "", "comma-separated parking-provider NS suffixes (parked-by-delegation first pass)")
	httpAddr := fs.String("http-addr", "", "dial every port-80 fetch here (simulated/shared web infrastructure); empty = dial the domain")
	httpsAddr := fs.String("https-addr", "", "dial every port-443 fetch here; empty = dial the domain")
	userAgent := fs.String("user-agent", "Mozilla/5.0 (X11; Linux x86_64) ShamFinder/1.0", "User-Agent for web fetches")
	outPath := fs.String("o", "", "write JSONL records here (the checkpoint file); empty = stdout")
	resumePath := fs.String("resume", "", "previous JSONL output: domains already recorded there are not re-probed")
	table := fs.Bool("table", false, "print Tables 12–14-shaped summaries after the run")
	backend := fs.String("backend", "", "detection backend for -domains input: postings (default), skeleton or both")
	fs.Parse(args)

	if !*skipDNS && *resolver == "" {
		return fmt.Errorf("survey: need -resolver HOST:PORT (or -skip-dns)")
	}
	be, err := shamfinder.ParseBackend(*backend)
	if err != nil {
		return err
	}

	// Resolve the input set: a pre-detected match file, or run
	// detection over -domains/stdin with the loaded engine.
	var inputs []triage.Input
	var fw *shamfinder.Framework
	if *matchesPath != "" {
		var err error
		if inputs, err = loadMatchFile(*matchesPath); err != nil {
			return err
		}
		// A snapshot or refs file is optional here; when given it still
		// supplies the homoglyph DB for brand-redirect reversion.
		if *snapPath != "" || *refsPath != "" {
			if fw, _, err = shamfinder.Resolve(*snapPath, *refsPath, builder(*fast, *db), false); err != nil {
				return err
			}
		}
	} else {
		var det *shamfinder.Detector
		var err error
		if fw, det, err = shamfinder.Resolve(*snapPath, *refsPath, builder(*fast, *db), true); err != nil {
			return err
		}
		var in io.Reader = os.Stdin
		if *domainsPath != "" {
			f, err := os.Open(*domainsPath)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		matches, scanned, err := det.DetectLines(in, *workers, be)
		if err != nil {
			return err
		}
		inputs = triage.InputsFromMatches(matches)
		fmt.Fprintf(os.Stderr, "scanned %d IDNs, detected %d homograph domains\n", scanned, len(inputs))
	}

	feeds, err := parseBlacklistFlags(blacklistSpecs)
	if err != nil {
		return err
	}

	// Resume BEFORE the output file is truncated: -resume and -o may
	// (and normally do) name the same file.
	resume := map[string]triage.Record{}
	if *resumePath != "" {
		if resume, err = triage.LoadCheckpoint(*resumePath); err != nil {
			return err
		}
	}

	spec := triage.Spec{
		Resolver:       *resolver,
		Transport:      *dnsTransport,
		DNSWorkers:     *dnsWorkers,
		WebWorkers:     *webWorkers,
		Rate:           *rate,
		Retries:        retries,
		StageTimeoutMS: int(stageTimeout.Milliseconds()),
		DNSTimeoutMS:   int(dnsTimeout.Milliseconds()),
		WebTimeoutMS:   int(webTimeout.Milliseconds()),
		SkipDNS:        *skipDNS,
		SkipWeb:        *skipWeb,
	}
	var parking []string
	for _, p := range strings.Split(*parkingNS, ",") {
		if p = strings.TrimSpace(p); p != "" {
			parking = append(parking, p)
		}
	}
	resolve := func(domain string, port int) string {
		if port == 443 && *httpsAddr != "" {
			return *httpsAddr
		}
		if port != 443 && *httpAddr != "" {
			return *httpAddr
		}
		return net.JoinHostPort(domain, strconv.Itoa(port))
	}
	// Brand-redirect reversion needs the homoglyph DB, which a -matches
	// run without -refs or -snapshot never loads.
	var glyphs *homoglyph.DB
	if fw != nil {
		glyphs = fw.DB()
	}
	cfg, err := spec.Config(resolve, *userAgent, feeds, parking, glyphs)
	if err != nil {
		return fmt.Errorf("survey: %w", err)
	}
	if cfg.DNS != nil {
		defer cfg.DNS.Close()
	}
	cfg.Resume = resume
	p, err := triage.New(cfg)
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	rw := triage.NewRecordWriter(w)
	tally := triage.NewTally()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	in := make(chan triage.Input)
	go func() {
		defer close(in)
		for _, input := range inputs {
			select {
			case in <- input:
			case <-ctx.Done():
				return
			}
		}
	}()
	start := time.Now()
	for rec := range p.Stream(ctx, in) {
		if err := rw.Write(rec); err != nil {
			return err
		}
		tally.Add(rec)
	}
	if err := ctx.Err(); err != nil {
		where := *outPath
		if where == "" {
			where = "the saved output"
		}
		return fmt.Errorf("survey interrupted after %d of %d domains; rerun with -resume %s to continue", tally.Total, len(inputs), where)
	}
	fmt.Fprintf(os.Stderr, "surveyed %d domains in %v: %d with NS, %d with A, %d DNS errors, %d blacklisted (%d resumed)\n",
		tally.Total, time.Since(start).Round(time.Millisecond),
		tally.WithNS, tally.WithA, tally.DNSErrors, tally.Blacklisted, tally.Resumed)
	if *table {
		out := bufio.NewWriter(os.Stdout)
		defer out.Flush()
		for _, tbl := range tally.Tables() {
			tbl.Write(out)
			fmt.Fprintln(out)
		}
		if len(tally.ByFeedSource) > 0 {
			tally.TableFourteen().Write(out)
		}
	}
	return nil
}

// loadMatchFile reads a pre-detected match list: one FQDN per line,
// optionally followed by TAB-separated reference and source columns
// (extra columns ignored, # comments skipped). Duplicate FQDNs keep
// their first line.
func loadMatchFile(path string) ([]triage.Input, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var inputs []triage.Input
	seen := make(map[string]bool)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		// ACE-aware normalization: a Unicode-form line probes as its
		// xn-- form, same as the detection path would emit it.
		fqdn := triage.NormalizeFQDN(fields[0])
		if fqdn == "" || seen[fqdn] {
			continue
		}
		seen[fqdn] = true
		input := triage.Input{FQDN: fqdn}
		if len(fields) > 1 {
			input.Reference = fields[1]
		}
		if len(fields) > 2 {
			input.Source = fields[2]
		}
		inputs = append(inputs, input)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return inputs, nil
}

// parseBlacklistFlags assembles the Table 14 feed set from repeated
// NAME=FILE flags. No flags means no blacklist stage; named feeds are
// loaded from hosts-format files and the unnamed ones stay empty.
func parseBlacklistFlags(specs []string) (*blacklist.Set, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	set := &blacklist.Set{
		HpHosts:  blacklist.NewFeed("hpHosts"),
		GSB:      blacklist.NewFeed("GSB"),
		Symantec: blacklist.NewFeed("Symantec"),
	}
	for _, spec := range specs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("survey: -blacklist %q: want NAME=FILE", spec)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var canonical string
		switch strings.ToLower(name) {
		case "hphosts":
			canonical = "hpHosts"
		case "gsb":
			canonical = "GSB"
		case "symantec":
			canonical = "Symantec"
		default:
			f.Close()
			return nil, fmt.Errorf("survey: unknown blacklist %q (want hphosts, gsb or symantec)", name)
		}
		feed, err := blacklist.Parse(canonical, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		switch canonical {
		case "hpHosts":
			set.HpHosts = feed
		case "GSB":
			set.GSB = feed
		case "Symantec":
			set.Symantec = feed
		}
	}
	return set, nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	refsPath := fs.String("refs", "", "reference domain list")
	snapPath := fs.String("snapshot", "", "load a compiled snapshot instead of building")
	fast := fs.Bool("fastfont", false, "skip CJK/Hangul font generation")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("explain: need one DOMAIN (plus -refs FILE or -snapshot FILE)")
	}
	fw, det, err := shamfinder.Resolve(*snapPath, *refsPath, builder(*fast, "both"), true)
	if err != nil {
		return err
	}
	matches := det.DetectDomainBackend(strings.ToLower(fs.Arg(0)), shamfinder.BackendPostings)
	if len(matches) == 0 {
		fmt.Printf("%s: no homograph of any reference domain\n", fs.Arg(0))
		return nil
	}
	for _, m := range matches {
		fmt.Println(fw.Warn(m).Text())
	}
	return nil
}

func cmdRevert(args []string) error {
	fs := flag.NewFlagSet("revert", flag.ExitOnError)
	snapPath := fs.String("snapshot", "", "load a compiled snapshot instead of building")
	fast := fs.Bool("fastfont", false, "skip CJK/Hangul font generation")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("revert: need one DOMAIN")
	}
	fw, _, err := shamfinder.Resolve(*snapPath, "", builder(*fast, "both"), false)
	if err != nil {
		return err
	}
	name := strings.ToLower(fs.Arg(0))
	uni, err := shamfinder.ToUnicode(name)
	if err != nil {
		return fmt.Errorf("decoding %q: %w", name, err)
	}
	// Revert the registrable label and reattach the (possibly
	// multi-label) public suffix — "www.gооgle.co.uk" reverts through
	// "gооgle", not "www".
	reverted, ok := fw.RevertDomain(name)
	if !ok {
		return fmt.Errorf("decoding %q: registrable label does not decode", name)
	}
	fmt.Printf("%s\t%s\t%s\n", name, uni, reverted)
	return nil
}

func cmdGlyphs(args []string) error {
	fs := flag.NewFlagSet("glyphs", flag.ExitOnError)
	snapPath := fs.String("snapshot", "", "load a compiled snapshot instead of building")
	fast := fs.Bool("fastfont", false, "skip CJK/Hangul font generation")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("glyphs: need one CHAR")
	}
	runes := []rune(fs.Arg(0))
	if len(runes) != 1 {
		return fmt.Errorf("glyphs: %q is not a single character", fs.Arg(0))
	}
	fw, _, err := shamfinder.Resolve(*snapPath, "", builder(*fast, "both"), false)
	if err != nil {
		return err
	}
	r := runes[0]
	glyphs := fw.Homoglyphs(r)
	fmt.Printf("%d homoglyphs of %c (U+%04X):\n", len(glyphs), r, r)
	for _, g := range glyphs {
		ok, src := fw.Confusable(r, g)
		if !ok {
			continue
		}
		fmt.Printf("  %c\tU+%04X\t%s\n", g, g, src)
	}
	return nil
}
