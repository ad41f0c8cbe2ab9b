// TLD watch: the real-time countermeasure of Section 4.2. Registries
// publish their zone files daily; a defender diffs consecutive
// snapshots and screens every *newly registered* IDN against the
// reference list, so a phishing homograph is flagged the day it
// appears — the paper measures detection at 0.07 s per reference,
// fast enough to block on sight.
//
// This example writes two zone snapshots (yesterday's and today's,
// where today adds benign registrations plus a handful of fresh
// homographs), then runs the watch cycle: parse → diff → extract IDNs
// → detect → report.
//
//	go run ./examples/tld-watch
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/punycode"
	"repro/internal/zonefile"
)

func main() {
	log.Println("building homoglyph database...")
	fw, err := shamfinder.New(shamfinder.Config{FontScope: shamfinder.FontFast})
	if err != nil {
		log.Fatal(err)
	}
	refs := []string{"google", "paypal", "binance", "wikipedia", "netflix"}
	det := fw.NewDetector(refs)

	dir, err := os.MkdirTemp("", "tldwatch")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	yesterdayPath := filepath.Join(dir, "com-day1.zone")
	todayPath := filepath.Join(dir, "com-day2.zone")
	if err := writeSnapshots(fw, yesterdayPath, todayPath); err != nil {
		log.Fatal(err)
	}

	// --- the watch cycle a defender runs daily ---
	yesterday, err := loadZone(yesterdayPath)
	if err != nil {
		log.Fatal(err)
	}
	today, err := loadZone(todayPath)
	if err != nil {
		log.Fatal(err)
	}
	added := newRegistrations(yesterday, today)
	newIDNs := shamfinder.ExtractIDNs(added)
	log.Printf("diff: %d new registrations, %d of them IDNs", len(added), len(newIDNs))

	start := time.Now()
	alerts := 0
	for _, domain := range newIDNs {
		// DetectDomainBackend splits the FQDN itself (root dot
		// tolerated), so the same watch loop serves a .com, .net or
		// IDN-TLD zone.
		for _, m := range det.DetectDomainBackend(domain, shamfinder.BackendPostings) {
			alerts++
			fmt.Printf("ALERT: new registration %s (%s) is a homograph of %s\n",
				domain, m.Unicode, m.Imitated())
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\nscreened %d new IDNs against %d references in %v (%s/IDN) — %d alerts\n",
		len(newIDNs), len(refs), elapsed.Round(time.Microsecond),
		(elapsed / time.Duration(max(1, len(newIDNs)))).Round(time.Microsecond), alerts)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// loadZone parses a zone file into its registered domain set.
func loadZone(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	z, err := zonefile.Parse(f, "")
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	set := make(map[string]bool)
	for _, name := range z.DomainNames() {
		set[strings.TrimSuffix(name, ".")] = true
	}
	return set, nil
}

// newRegistrations returns today's domains absent yesterday, sorted by
// the zone's order of appearance.
func newRegistrations(yesterday, today map[string]bool) []string {
	var out []string
	for d := range today {
		if !yesterday[d] {
			out = append(out, d)
		}
	}
	// Deterministic order for the demo output.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// writeSnapshots fabricates two daily zone files. Day 2 adds benign
// names, benign IDNs, and three fresh homographs built from the
// framework's own homoglyph database.
func writeSnapshots(fw *shamfinder.Framework, day1, day2 string) error {
	base := []string{
		"example", "established", "xn--bcher-kva", // bücher: benign IDN
		"oldnews", "shop", "blog",
	}
	added := []string{"startup", "xn--caf-dma"} // café: benign IDN

	// Fresh homographs of three protected brands, one substitution each.
	for _, target := range []string{"google", "paypal", "binance"} {
		runes := []rune(target)
		glyphs := fw.Homoglyphs(runes[0])
		if len(glyphs) == 0 {
			continue
		}
		runes[0] = glyphs[0]
		ace, err := punycode.ToASCIILabel(string(runes))
		if err != nil {
			return err
		}
		added = append(added, ace)
	}

	write := func(path string, labels []string) error {
		var sb strings.Builder
		sb.WriteString("$ORIGIN com.\n$TTL 300\n@ IN SOA a.gtld-servers.net. nstld.example. 1 2 3 4 5\n")
		for _, l := range labels {
			sb.WriteString(l + " IN NS ns1." + l + ".com.\n")
		}
		return os.WriteFile(path, []byte(sb.String()), 0o644)
	}
	if err := write(day1, base); err != nil {
		return err
	}
	return write(day2, append(append([]string{}, base...), added...))
}
