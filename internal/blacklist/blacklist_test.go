package blacklist

import (
	"bytes"
	"strings"
	"testing"
)

func TestFeedBasics(t *testing.T) {
	f := NewFeed("test")
	f.Add("Evil.COM.")
	if !f.Contains("evil.com") || !f.Contains("EVIL.com.") {
		t.Error("normalization broken")
	}
	if f.Contains("good.com") {
		t.Error("false positive")
	}
	if f.Len() != 1 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestMatchPreservesOrder(t *testing.T) {
	f := NewFeed("test")
	f.Add("b.com")
	f.Add("d.com")
	got := f.Match([]string{"a.com", "b.com", "c.com", "d.com"})
	if len(got) != 2 || got[0] != "b.com" || got[1] != "d.com" {
		t.Errorf("Match = %v", got)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	f := NewFeed("rt")
	f.Add("one.com")
	f.Add("two.com")
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse("rt2", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || !got.Contains("one.com") || !got.Contains("two.com") {
		t.Errorf("round trip lost entries: %d", got.Len())
	}
}

func TestParseFormats(t *testing.T) {
	input := `# comment line

127.0.0.1 hosts-style.com
bare-style.com
  0.0.0.0   spaced.com
`
	f, err := Parse("p", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"hosts-style.com", "bare-style.com", "spaced.com"} {
		if !f.Contains(d) {
			t.Errorf("missing %s", d)
		}
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d", f.Len())
	}
}

func TestSetAnyContains(t *testing.T) {
	s := &Set{HpHosts: NewFeed("hp"), GSB: NewFeed("gsb"), Symantec: NewFeed("sym")}
	s.GSB.Add("bad.com")
	if !s.AnyContains("bad.com") || s.AnyContains("ok.com") {
		t.Error("AnyContains mismatch")
	}
	if len(s.Feeds()) != 3 {
		t.Error("Feeds() size")
	}
}

// TestSetAnyContainsSkipsNilFeeds: a set with only some feeds filled
// in answers from those, as the triage blacklist stage does, where it
// used to dereference the nil ones.
func TestSetAnyContainsSkipsNilFeeds(t *testing.T) {
	hp := NewFeed("hpHosts")
	hp.Add("bad.com")
	for _, s := range []*Set{{HpHosts: hp}, {GSB: hp}, {Symantec: hp}, {}} {
		want := s.HpHosts != nil || s.GSB != nil || s.Symantec != nil
		if got := s.AnyContains("bad.com"); got != want {
			t.Errorf("%+v: AnyContains(bad.com) = %v, want %v", s, got, want)
		}
		if s.AnyContains("ok.com") {
			t.Errorf("%+v: AnyContains(ok.com) = true", s)
		}
	}
}

func TestTableFourteenCounts(t *testing.T) {
	s := &Set{HpHosts: NewFeed("hpHosts"), GSB: NewFeed("GSB"), Symantec: NewFeed("Symantec")}
	// 3 homographs; hp lists all, gsb lists one.
	for _, d := range []string{"h1.com", "h2.com", "h3.com"} {
		s.HpHosts.Add(d)
	}
	s.GSB.Add("h2.com")
	uc := []string{"h1.com"}
	sim := []string{"h2.com", "h3.com"}
	union := []string{"h1.com", "h2.com", "h3.com"}
	rows := TableFourteen(s, uc, sim, union)
	if rows[0].UC != 1 || rows[0].SimChar != 2 || rows[0].Union != 3 {
		t.Errorf("hpHosts row = %+v", rows[0])
	}
	if rows[1].UC != 0 || rows[1].SimChar != 1 || rows[1].Union != 1 {
		t.Errorf("GSB row = %+v", rows[1])
	}
	if rows[2].Union != 0 {
		t.Errorf("Symantec row = %+v", rows[2])
	}
}

func TestNormalizeACEAndUnicodeAgree(t *testing.T) {
	f := NewFeed("test")
	// A Unicode-form entry, a mixed-case ACE entry and a mixed-case
	// Unicode entry must all hit the ACE FQDN the detection pipeline
	// emits, and vice versa. Before the normalize fix, only the
	// byte-identical lowercase ACE form matched.
	f.Add("gооgle.com")           // Cyrillic о ×2: encodes to xn--ggle-55da
	f.Add("XN--FCEBOOK-2FG.COM.") // uppercase ACE, trailing root dot
	f.Add("PАYPAL.com")           // uppercase with Cyrillic А
	for _, q := range []string{
		"xn--ggle-55da.com",
		"XN--GGLE-55DA.COM",
		"gооgle.com",
		"xn--fcebook-2fg.com",
		"fаcebook.com", // Cyrillic а
		"xn--pypal-4ve.com",
		"pаypal.com",
	} {
		if !f.Contains(q) {
			t.Errorf("Contains(%q) = false, want true", q)
		}
	}
	if f.Len() != 3 {
		t.Errorf("Len = %d, want 3 (forms must collapse to one entry each)", f.Len())
	}
	if f.Contains("google.com") || f.Contains("paypal.com") {
		t.Error("ASCII originals must not match their homograph entries")
	}
	// Malformed entries (label beyond the 63-octet ACE limit) fall back
	// to a pure case fold and still match byte-identical queries.
	long := strings.Repeat("ö", 80) + ".com"
	f.Add(long)
	if !f.Contains(long) {
		t.Error("malformed entry must still match itself")
	}
}

func TestMatchACEFQDNsAgainstMixedFeed(t *testing.T) {
	// The Table-14 path: detected homographs arrive as lowercase ACE
	// FQDNs; the feed was parsed from a hosts file in whatever form the
	// feed publisher chose.
	feedFile := "127.0.0.1 GООGLE.com\n127.0.0.1 xn--mazon-3ve.CO.UK\n# comment\n127.0.0.1 unrelated.badexample\n"
	f, err := Parse("hp", strings.NewReader(feedFile))
	if err != nil {
		t.Fatal(err)
	}
	detected := []string{"xn--ggle-55da.com", "xn--mazon-3ve.co.uk", "xn--clean-0a.com"}
	got := f.Match(detected)
	want := []string{"xn--ggle-55da.com", "xn--mazon-3ve.co.uk"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Match = %v, want %v", got, want)
	}
}
