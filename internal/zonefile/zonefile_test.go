package zonefile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dnswire"
)

const sampleZone = `
$ORIGIN com.
$TTL 3600
; delegation records for the com zone
@	IN SOA a.gtld-servers.net. nstld.verisign-grs.com. (
		2024052900 ; serial
		1800       ; refresh
		900        ; retry
		604800     ; expire
		86400 )    ; minimum
@	IN NS	a.gtld-servers.net.
example	IN NS	ns1.example.com.
	IN NS	ns2.example.com.
ns1.example	IN A	192.0.2.10
ns1.example	IN AAAA	2001:db8::10
mail.example	300 IN MX	10 mx.example.com.
example	IN TXT	"v=spf1 -all" "second string"
www.example	IN CNAME example
xn--fcbook-dya IN NS ns1.example.com.
`

func parseSample(t *testing.T) *Zone {
	t.Helper()
	z, err := Parse(strings.NewReader(sampleZone), "")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return z
}

func TestParseBasics(t *testing.T) {
	z := parseSample(t)
	if z.Origin != "com." {
		t.Errorf("origin = %q", z.Origin)
	}
	if z.TTL != 3600 {
		t.Errorf("default TTL = %d", z.TTL)
	}
	if len(z.Records) != 10 {
		t.Fatalf("got %d records, want 10", len(z.Records))
	}
}

func TestParseSOAMultiline(t *testing.T) {
	z := parseSample(t)
	soa, ok := z.Records[0].Data.(dnswire.SOA)
	if !ok {
		t.Fatalf("record 0 is %T", z.Records[0].Data)
	}
	if soa.Serial != 2024052900 || soa.Refresh != 1800 || soa.Minimum != 86400 {
		t.Errorf("SOA = %+v", soa)
	}
	if z.Records[0].Name != "com." {
		t.Errorf("SOA owner = %q", z.Records[0].Name)
	}
}

func TestOwnerInheritance(t *testing.T) {
	z := parseSample(t)
	// Record 3 is the blank-owner NS line following example's first NS.
	if z.Records[3].Name != "example.com." {
		t.Errorf("inherited owner = %q", z.Records[3].Name)
	}
	if ns := z.Records[3].Data.(dnswire.NS); ns.Host != "ns2.example.com." {
		t.Errorf("inherited NS host = %q", ns.Host)
	}
}

func TestRelativeNamesResolved(t *testing.T) {
	z := parseSample(t)
	var cname dnswire.CNAME
	found := false
	for _, rec := range z.Records {
		if c, ok := rec.Data.(dnswire.CNAME); ok {
			cname = c
			found = true
			if rec.Name != "www.example.com." {
				t.Errorf("CNAME owner = %q", rec.Name)
			}
		}
	}
	if !found || cname.Target != "example.com." {
		t.Errorf("CNAME = %+v found=%t", cname, found)
	}
}

func TestPerRecordTTL(t *testing.T) {
	z := parseSample(t)
	for _, rec := range z.Records {
		if _, ok := rec.Data.(dnswire.MX); ok {
			if rec.TTL != 300 {
				t.Errorf("MX TTL = %d, want 300", rec.TTL)
			}
			return
		}
	}
	t.Fatal("no MX record found")
}

func TestTXTStrings(t *testing.T) {
	z := parseSample(t)
	for _, rec := range z.Records {
		if txt, ok := rec.Data.(dnswire.TXT); ok {
			if len(txt.Strings) != 2 || txt.Strings[0] != "v=spf1 -all" {
				t.Errorf("TXT = %+v", txt.Strings)
			}
			return
		}
	}
	t.Fatal("no TXT record found")
}

func TestDomainNames(t *testing.T) {
	z := parseSample(t)
	names := z.DomainNames()
	// example.com (two NS lines, deduped) + the IDN; the zone apex NS
	// is excluded.
	if len(names) != 2 {
		t.Fatalf("DomainNames = %v", names)
	}
	if names[0] != "example.com." || names[1] != "xn--fcbook-dya.com." {
		t.Errorf("DomainNames = %v", names)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	z := parseSample(t)
	var buf bytes.Buffer
	if err := z.Write(&buf); err != nil {
		t.Fatal(err)
	}
	z2, err := Parse(&buf, "")
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(z2.Records) != len(z.Records) {
		t.Fatalf("round trip: %d -> %d records", len(z.Records), len(z2.Records))
	}
	for i := range z.Records {
		a, b := z.Records[i], z2.Records[i]
		if a.Name != b.Name || a.TTL != b.TTL || a.Data.Type() != b.Data.Type() ||
			a.Data.String() != b.Data.String() {
			t.Errorf("record %d: %v != %v", i, a, b)
		}
	}
}

func TestTTLUnits(t *testing.T) {
	cases := []struct {
		in   string
		want uint32
	}{
		{"30", 30}, {"30s", 30}, {"2m", 120}, {"1h", 3600}, {"2d", 172800}, {"1w", 604800},
	}
	for _, c := range cases {
		got, err := parseTTL(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseTTL(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	if _, err := parseTTL("abc"); err == nil {
		t.Error("parseTTL(abc) succeeded")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, zone string
	}{
		{"unbalanced open", "$ORIGIN com.\nfoo IN SOA a. b. ( 1 2 3"},
		{"unbalanced close", "$ORIGIN com.\nfoo IN NS a. )"},
		{"relative without origin", "foo IN NS bar"},
		{"bad A", "$ORIGIN com.\nfoo IN A notanip"},
		{"v6 in A", "$ORIGIN com.\nfoo IN A 2001:db8::1"},
		{"bad MX pref", "$ORIGIN com.\nfoo IN MX ten mail"},
		{"unknown directive", "$BOGUS x"},
		{"include unsupported", "$INCLUDE other.zone"},
		{"no type", "$ORIGIN com.\nfoo IN 300"},
		{"inherit first", "$ORIGIN com.\n  IN NS a."},
		{"unterminated quote", "$ORIGIN com.\nfoo IN TXT \"oops"},
		{"origin relative", "$ORIGIN com"},
		{"TTL overflow", "$ORIGIN com.\nfoo 1000000w IN A 192.0.2.1"},
		{"quoted owner", "$ORIGIN com.\n\"foo\" IN A 192.0.2.1"},
		{"quoted name", "$ORIGIN com.\nfoo IN NS \"ns\""},
		{"empty label", "$ORIGIN com.\nfoo IN NS ns..example."},
		{"directive-like owner", "$ORIGIN $x.\n@ IN A 192.0.2.1"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.zone), ""); err == nil {
			t.Errorf("%s: Parse succeeded, want error", c.name)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse(strings.NewReader("$ORIGIN com.\ngood IN NS a.\nbad IN A nope\n"), "")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	zone := "; leading comment\n\n$ORIGIN com.\n\nfoo IN NS ns.foo ; trailing\n"
	z, err := Parse(strings.NewReader(zone), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Records) != 1 {
		t.Fatalf("records = %v", z.Records)
	}
	if z.Records[0].Name != "foo.com." {
		t.Errorf("owner = %q", z.Records[0].Name)
	}
}

func TestAtOrigin(t *testing.T) {
	z, err := Parse(strings.NewReader("$ORIGIN net.\n@ IN NS ns1\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	if z.Records[0].Name != "net." {
		t.Errorf("@ resolved to %q", z.Records[0].Name)
	}
	if ns := z.Records[0].Data.(dnswire.NS); ns.Host != "ns1.net." {
		t.Errorf("relative NS host = %q", ns.Host)
	}
}

func TestRootOrigin(t *testing.T) {
	z, err := Parse(strings.NewReader("$ORIGIN .\nfoo IN NS ns1\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	if z.Records[0].Name != "foo." {
		t.Errorf("relative owner under the root resolved to %q", z.Records[0].Name)
	}
	if ns := z.Records[0].Data.(dnswire.NS); ns.Host != "ns1." {
		t.Errorf("relative NS host under the root = %q", ns.Host)
	}
}

func TestExternalOriginParameter(t *testing.T) {
	z, err := Parse(strings.NewReader("foo IN NS ns.foo\n"), "org")
	if err != nil {
		t.Fatal(err)
	}
	if z.Records[0].Name != "foo.org." {
		t.Errorf("owner = %q", z.Records[0].Name)
	}
}

func TestLargeZoneScales(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("$ORIGIN com.\n$TTL 300\n")
	for i := 0; i < 5000; i++ {
		sb.WriteString("domain")
		sb.WriteString(strings.Repeat("x", i%5))
		sb.WriteByte('a' + byte(i%26))
		sb.WriteString(" IN NS ns1.registrar.net.\n")
	}
	z, err := Parse(strings.NewReader(sb.String()), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(z.Records) != 5000 {
		t.Errorf("records = %d", len(z.Records))
	}
}

// TestTokenizeQuotedEscapes pins the tokenize fast path introduced for
// zone-scale parsing: unescaped quoted strings take the copy-free route,
// escaped ones still unescape exactly as before.
func TestTokenizeQuotedEscapes(t *testing.T) {
	cases := []struct {
		line   string
		tokens []string
	}{
		{`foo TXT "plain"`, []string{"foo", "TXT", "\"plain"}},
		{`foo TXT ""`, []string{"foo", "TXT", "\""}},
		{`foo TXT "with \"inner\" quotes"`, []string{"foo", "TXT", "\"with \"inner\" quotes"}},
		{`foo TXT "back\\slash"`, []string{"foo", "TXT", "\"back\\slash"}},
		{`foo TXT "a" "b"`, []string{"foo", "TXT", "\"a", "\"b"}},
		{`foo TXT "semi;colon" ; trailing comment`, []string{"foo", "TXT", "\"semi;colon"}},
		{`foo TXT "paren()"`, []string{"foo", "TXT", "\"paren()"}},
	}
	for _, c := range cases {
		tokens, opened, closed, err := tokenize(c.line)
		if err != nil {
			t.Errorf("tokenize(%q): %v", c.line, err)
			continue
		}
		if opened != 0 || closed != 0 {
			t.Errorf("tokenize(%q) counted parens %d/%d inside quotes", c.line, opened, closed)
		}
		if len(tokens) != len(c.tokens) {
			t.Errorf("tokenize(%q) = %q, want %q", c.line, tokens, c.tokens)
			continue
		}
		for i := range tokens {
			if tokens[i] != c.tokens[i] {
				t.Errorf("tokenize(%q)[%d] = %q, want %q", c.line, i, tokens[i], c.tokens[i])
			}
		}
	}
	if _, _, _, err := tokenize(`foo TXT "unterminated`); err == nil {
		t.Error("unterminated quote accepted")
	}
	if _, _, _, err := tokenize(`foo TXT "trailing backslash\`); err == nil {
		t.Error("unterminated escaped quote accepted")
	}
}

// FuzzParse: Parse never panics, and any zone it accepts writes out and
// parses back to the same origin, default TTL and records. The seed
// corpus under testdata/fuzz holds master files written by Write plus
// the hand-formatted sample; `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		z, err := Parse(strings.NewReader(src), "com.")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := z.Write(&buf); err != nil {
			t.Fatal(err)
		}
		z2, err := Parse(bytes.NewReader(buf.Bytes()), "")
		if err != nil {
			t.Fatalf("Parse(%q) accepted a zone whose Write output\n%s\nfails to parse: %v", src, buf.Bytes(), err)
		}
		if !reflect.DeepEqual(z, z2) {
			t.Fatalf("Parse(%q) round trip through\n%s\nchanged the zone: %+v became %+v", src, buf.Bytes(), z, z2)
		}
	})
}
