package confusables

import (
	"bytes"
	"strings"
	"testing"
)

// SkeletonAppend returns a multi-rune prototype in full, never truncated
// to its first rune.
func TestSkeletonAppendMultiRune(t *testing.T) {
	db := New()
	db.Add(0xFB03, []rune("ffi"), "") // ﬃ
	db.Add('m', []rune("rn"), "")

	if got := string(db.SkeletonAppend(nil, 0xFB03)); got != "ffi" {
		t.Errorf("SkeletonAppend(ﬃ) = %q, want %q", got, "ffi")
	}
	if got := string(db.SkeletonAppend(nil, 'm')); got != "rn" {
		t.Errorf("SkeletonAppend(m) = %q, want %q", got, "rn")
	}
	// A rune with no entry appends itself.
	if got := string(db.SkeletonAppend(nil, 'q')); got != "q" {
		t.Errorf("SkeletonAppend(q) = %q", got)
	}
}

// Each rune of a multi-rune target is itself resolved, so chained
// expansions reach the fixed point.
func TestSkeletonAppendRecursive(t *testing.T) {
	db := New()
	db.Add('m', []rune("rn"), "")
	db.Add('r', []rune{0x0433}, "") // contrived: r itself maps on
	if got := string(db.SkeletonAppend(nil, 'm')); got != "гn" {
		t.Errorf("SkeletonAppend(m) = %q, want %q", got, "гn")
	}
	// Single-rune chains agree with the deprecated API.
	db2 := New()
	db2.Add('x', []rune{'y'}, "")
	db2.Add('y', []rune{'z'}, "")
	if got := string(db2.SkeletonAppend(nil, 'x')); got != "z" {
		t.Errorf("chain SkeletonAppend(x) = %q, want z", got)
	}
	// Cycles terminate.
	db2.Add('z', []rune{'x'}, "")
	_ = db2.SkeletonAppend(nil, 'x')
}

func TestSkeletonWholeString(t *testing.T) {
	db := New()
	db.Add('m', []rune("rn"), "")
	db.Add('w', []rune("vv"), "")
	db.Add('d', []rune("cl"), "")
	db.Add(0x0430, []rune{'a'}, "")

	cases := []struct{ in, want string }{
		{"rnicrosoft", "rnicrosoft"},  // already skeleton form
		{"microsoft", "rnicrosoft"},   // m expands
		{"vvikipedia", "vvikipeclia"}, // the 'd' expands too
		{"wikipedia", "vvikipeclia"},
		{"dose", "close"},
		{"close", "close"},
		{"fаcebook", "facebook"},
	}
	for _, c := range cases {
		if got := db.Skeleton(c.in); got != c.want {
			t.Errorf("Skeleton(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The many-to-one confusion is exactly skeleton equality.
	if db.Skeleton("rnicrosoft") != db.Skeleton("microsoft") {
		t.Error("skeleton(rnicrosoft) must equal skeleton(microsoft)")
	}
}

// Confusable compares full sequences: a multi-rune-prototype rune is NOT
// pairwise-confusable with the first rune of its prototype (that would
// make ASCII 'm' ~ ASCII 'r', breaking posting-backend soundness).
func TestConfusableFullSequence(t *testing.T) {
	db := New()
	db.Add('m', []rune("rn"), "")
	db.Add(0x051C, []rune{'w'}, "")
	db.Add('w', []rune("vv"), "")
	if db.Confusable('m', 'r') {
		t.Error("m ~ r must be false (full-sequence comparison)")
	}
	// Both expand to "vv", so the pair survives 'w' gaining a sequence.
	if !db.Confusable(0x051C, 'w') {
		t.Error("Ԝ ~ w must hold: both skeletons are \"vv\"")
	}
	if db.Confusable('w', 'v') {
		t.Error("w ~ v must be false")
	}
}

func TestSkeletonHangulNFD(t *testing.T) {
	db := New()
	// 가 (U+AC00) decomposes to U+1100 U+1161.
	if got := db.Skeleton("가"); got != "가" {
		t.Errorf("Skeleton(가) = %+q, want %+q", got, "가")
	}
	// 각 (U+AC01) has a trailing jamo.
	if got := db.Skeleton("각"); got != "각" {
		t.Errorf("Skeleton(각) = %+q", got)
	}
}

func TestCanonicalRuneStopsBeforeSequences(t *testing.T) {
	db := New()
	db.Add(0x051C, []rune{'w'}, "")
	db.Add('w', []rune("vv"), "")
	db.Add('x', []rune{'y'}, "")
	db.Add('y', []rune{'z'}, "")
	if got := db.CanonicalRune(0x051C); got != 'w' {
		t.Errorf("CanonicalRune(Ԝ) = %q, want w", got)
	}
	if got := db.CanonicalRune('x'); got != 'z' {
		t.Errorf("CanonicalRune(x) = %q, want z", got)
	}
	if got := db.CanonicalRune('w'); got != 'w' {
		t.Errorf("CanonicalRune(w) = %q, want w (no one-rune original)", got)
	}
}

// The committed generated file must be exactly what the generator emits
// for the same provenance — the in-process form of CI's regenerate-and-
// diff gate — and Default() must agree with BuildSynthetic().
func TestGeneratedFileMatchesGenerator(t *testing.T) {
	def := Default()
	if def.UnicodeVersion() == "" || def.GeneratedAt() == "" {
		t.Fatalf("embedded table missing provenance: version=%q generatedAt=%q",
			def.UnicodeVersion(), def.GeneratedAt())
	}
	var buf bytes.Buffer
	if err := WriteGenerated(&buf, def.UnicodeVersion(), def.GeneratedAt()); err != nil {
		t.Fatal(err)
	}
	if buf.String() != embeddedData {
		t.Fatal("embedded confusables_data.txt is stale: rerun `go run ./cmd/confusablesgen`")
	}

	built := BuildSynthetic()
	if built.Len() != def.Len() {
		t.Fatalf("BuildSynthetic has %d entries, embedded table %d", built.Len(), def.Len())
	}
	be, de := built.Entries(), def.Entries()
	for i := range be {
		if be[i].Source != de[i].Source || string(be[i].Target) != string(de[i].Target) {
			t.Fatalf("entry %d differs: built %#U→%q, embedded %#U→%q",
				i, be[i].Source, string(be[i].Target), de[i].Source, string(de[i].Target))
		}
	}
}

func TestDefaultManyToOne(t *testing.T) {
	db := Default()
	cases := []struct {
		src  rune
		want string
	}{
		{'m', "rn"}, {'w', "vv"}, {'d', "cl"}, {0xFB03, "ffi"},
	}
	for _, c := range cases {
		if got, ok := db.Lookup(c.src); !ok || string(got) != c.want {
			t.Errorf("Lookup(%#U) = %q, %v; want %q", c.src, string(got), ok, c.want)
		}
	}
	if db.Skeleton("rnicrosoft") != db.Skeleton("microsoft") {
		t.Error("default DB: skeleton(rnicrosoft) != skeleton(microsoft)")
	}
}

func TestProvenanceRoundTrip(t *testing.T) {
	db := New()
	db.Add(0x0430, []rune{'a'}, "")
	db.SetProvenance("16.0.0", "2026-08-08T00:00:00Z")
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.UnicodeVersion() != "16.0.0" || back.GeneratedAt() != "2026-08-08T00:00:00Z" {
		t.Fatalf("provenance lost: %q %q", back.UnicodeVersion(), back.GeneratedAt())
	}
}
