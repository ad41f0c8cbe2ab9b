package domain

import (
	"reflect"
	"strings"
	"testing"
)

func spansToStrings(name string, spans []Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = name[sp.Start:sp.End]
	}
	return out
}

func TestAppendSpans(t *testing.T) {
	label63 := strings.Repeat("a", 63)
	cases := []struct {
		name string
		want []string
	}{
		{"", nil},
		{".", []string{""}},
		{"com", []string{"com"}},
		{"example.com", []string{"example", "com"}},
		{"example.com.", []string{"example", "com"}}, // trailing root dot
		{"www.example.co.uk", []string{"www", "example", "co", "uk"}},
		{"a..b", []string{"a", "", "b"}}, // interior empty label preserved
		{"a..", []string{"a", ""}},       // only ONE trailing dot is the root
		{"xn--80ak6aa92e.xn--p1ai", []string{"xn--80ak6aa92e", "xn--p1ai"}},
		{label63 + ".com", []string{label63, "com"}},
		{"xn--bcher-kva.mail.example.net", []string{"xn--bcher-kva", "mail", "example", "net"}},
	}
	for _, c := range cases {
		got := spansToStrings(c.name, AppendSpans(nil, c.name))
		if !reflect.DeepEqual(got, c.want) && !(len(got) == 0 && len(c.want) == 0) {
			t.Errorf("AppendSpans(%q) = %v, want %v", c.name, got, c.want)
		}
		// The []byte instantiation must agree with the string one.
		bgot := spansToStrings(c.name, AppendSpans(nil, []byte(c.name)))
		if !reflect.DeepEqual(got, bgot) {
			t.Errorf("AppendSpans([]byte %q) = %v diverges from string form %v", c.name, bgot, got)
		}
	}
}

// TestAppendSpansReuse: appending into a reused scratch slice must not
// let a previous name's spans leak into the trailing-root-dot logic.
func TestAppendSpansReuse(t *testing.T) {
	scratch := AppendSpans(nil, "a.b.c")
	got := spansToStrings(".", AppendSpans(scratch[:0], "."))
	if !reflect.DeepEqual(got, []string{""}) {
		t.Errorf("reused scratch: AppendSpans(\".\") = %v, want [\"\"]", got)
	}
	// Appending after existing entries keeps them intact.
	pre := AppendSpans(nil, "x.y")
	both := AppendSpans(pre, "q.")
	if len(both) != 3 {
		t.Errorf("append after existing entries: %d spans, want 3", len(both))
	}
}

func TestAppendSpansAllocFree(t *testing.T) {
	buf := make([]Span, 0, 8)
	name := []byte("www.xn--bcher-kva.co.uk")
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendSpans(buf[:0], name)
	}); n != 0 {
		t.Errorf("AppendSpans allocates %.1f per call with warm scratch; want 0", n)
	}
}

func TestSuffixLabels(t *testing.T) {
	cases := []struct {
		name string
		want int
	}{
		{"label", 0},
		{"example.com", 1},
		{"example.net", 1},
		{"amazon.co.uk", 2},
		{"www.amazon.co.uk", 2},
		{"AMAZON.CO.UK", 2},            // case-insensitive
		{"co.uk", 1},                   // never swallows the whole name
		{"xn--80ak6aa92e.xn--p1ai", 1}, // ACE TLD is a single-label suffix
		{"example.uk", 1},              // uk itself, no second-level rule hit
		{"shop.example.com.au", 2},
		{"a.verylonglabel.uk", 1}, // second label not in the uk table
	}
	for _, c := range cases {
		spans := AppendSpans(nil, c.name)
		if got := SuffixLabels(c.name, spans); got != c.want {
			t.Errorf("SuffixLabels(%q) = %d, want %d", c.name, got, c.want)
		}
		if got := SuffixLabels([]byte(c.name), AppendSpans(nil, []byte(c.name))); got != c.want {
			t.Errorf("SuffixLabels([]byte %q) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRegistrable(t *testing.T) {
	cases := []struct {
		name, label, suffix string
	}{
		{"", "", ""},
		{".", "", ""},
		{"google", "google", ""},
		{"google.com", "google", "com"},
		{"google.com.", "google", "com"},
		{"amazon.co.uk", "amazon", "co.uk"},
		{"www.amazon.co.uk", "amazon", "co.uk"},
		{"www.xn--ggle-55da.com", "xn--ggle-55da", "com"},
		{"xn--80ak6aa92e.xn--p1ai", "xn--80ak6aa92e", "xn--p1ai"},
		{"co.uk", "co", "uk"}, // a name that IS a suffix still yields a label
		{"deep.sub.shop.example.com.au", "example", "com.au"},
		// The IDN sits in a non-final (subdomain) label; the registrable
		// label is still the one left of the suffix.
		{"xn--bcher-kva.mail.example.net", "example", "net"},
	}
	for _, c := range cases {
		label, suffix := Registrable(c.name)
		if label != c.label || suffix != c.suffix {
			t.Errorf("Registrable(%q) = (%q, %q), want (%q, %q)", c.name, label, suffix, c.label, c.suffix)
		}
	}
}

// TestRegistrableSpanMatchesSpans checks the cut taken from the end of
// a name against the one the span list defines, the label left of
// SuffixLabels' suffix, on every name of up to five tokens that mix
// labels, suffix labels, upper case and empty labels, on both input
// types.
func TestRegistrableSpanMatchesSpans(t *testing.T) {
	tokens := []string{"a", ".", "co", "UK", "com", "au", "xn--p1ai"}
	var names []string
	var grow func(prefix string, depth int)
	grow = func(prefix string, depth int) {
		names = append(names, prefix)
		if depth == 5 {
			return
		}
		for _, tok := range tokens {
			grow(prefix+tok, depth+1)
		}
	}
	grow("", 0)
	for _, name := range names {
		spans := AppendSpans(nil, name)
		var want Span
		if len(spans) > 0 {
			want = spans[len(spans)-SuffixLabels(name, spans)-1]
		}
		if got, _ := RegistrableSpan(name); got != want {
			t.Fatalf("RegistrableSpan(%q) = %v, want %v", name, got, want)
		}
		if got, _ := RegistrableSpan([]byte(name)); got != want {
			t.Fatalf("RegistrableSpan([]byte %q) = %v, want %v", name, got, want)
		}
	}
}

func TestSuffixAndLabels(t *testing.T) {
	if got := Suffix("amazon.co.uk"); got != "co.uk" {
		t.Errorf("Suffix = %q", got)
	}
	if got := Suffix("bare"); got != "" {
		t.Errorf("Suffix(bare) = %q", got)
	}
	if got := Labels("a.b.c."); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Labels = %v", got)
	}
}
