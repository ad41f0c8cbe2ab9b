package punycode

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// rfcSamples are the sample strings of RFC 3492 section 7.1.
var rfcSamples = []struct {
	name    string
	unicode string
	encoded string
}{
	{"Arabic (Egyptian)",
		"ليهمابتكلموشعربي؟",
		"egbpdaj6bu4bxfgehfvwxn"},
	{"Chinese (simplified)",
		"他们为什么不说中文",
		"ihqwcrb4cv8a8dqg056pqjye"},
	{"Chinese (traditional)",
		"他們爲什麽不說中文",
		"ihqwctvzc91f659drss3x8bo0yb"},
	{"Czech",
		"Pročprostěnemluvíčesky",
		"Proprostnemluvesky-uyb24dma41a"},
	{"Hebrew",
		"למההםפשוטלאמדבריםעברית",
		"4dbcagdahymbxekheh6e0a7fei0b"},
	{"Hindi (Devanagari)",
		"यहलोगहिन्दीक्योंनहींबोलसकतेहैं",
		"i1baa7eci9glrd9b2ae1bj0hfcgg6iyaf8o0a1dig0cd"},
	{"Japanese (kanji and hiragana)",
		"なぜみんな日本語を話してくれないのか",
		"n8jok5ay5dzabd5bym9f0cm5685rrjetr6pdxa"},
	{"Russian (Cyrillic)",
		"почемужеонинеговорятпорусски",
		"b1abfaaepdrnnbgefbadotcwatmq2g4l"},
	{"Spanish",
		"PorquénopuedensimplementehablarenEspañol",
		"PorqunopuedensimplementehablarenEspaol-fmd56a"},
	{"Vietnamese",
		"TạisaohọkhôngthểchỉnóitiếngViệt",
		"TisaohkhngthchnitingVit-kjcr8268qyxafd2f1b9g"},
	{"Japanese artist 3B",
		"3年B組金八先生",
		"3B-ww4c5e180e575a65lsy2b"},
	{"Japanese artist with ASCII",
		"安室奈美恵-with-SUPER-MONKEYS",
		"-with-SUPER-MONKEYS-pc58ag80a8qai00g7n9n"},
	{"Hello Another Way",
		"Hello-Another-Way-それぞれの場所",
		"Hello-Another-Way--fc4qua05auwb3674vfr0b"},
	{"Hitotsu yane no shita 2",
		"ひとつ屋根の下2",
		"2-u9tlzr9756bt3uc0v"},
	{"Maji de koi suru",
		"MajiでKoiする5秒前",
		"MajiKoi5-783gue6qz075azm5e"},
	{"Pafii de runba",
		"パフィーdeルンバ",
		"de-jg4avhby1noc0d"},
	{"Sono supiido de",
		"そのスピードで",
		"d9juau41awczczp"},
	{"ASCII-only",
		"-> $1.00 <-",
		"-> $1.00 <--"},
}

func TestEncodeRFCSamples(t *testing.T) {
	for _, s := range rfcSamples {
		got, err := Encode(s.unicode)
		if err != nil {
			t.Errorf("%s: Encode error: %v", s.name, err)
			continue
		}
		// RFC samples preserve case of basic code points; our Encode does
		// not lowercase (IDNA layer does).
		if got != s.encoded {
			t.Errorf("%s: Encode = %q, want %q", s.name, got, s.encoded)
		}
	}
}

func TestDecodeRFCSamples(t *testing.T) {
	for _, s := range rfcSamples {
		got, err := Decode(s.encoded)
		if err != nil {
			t.Errorf("%s: Decode error: %v", s.name, err)
			continue
		}
		if got != s.unicode {
			t.Errorf("%s: Decode = %q, want %q", s.name, got, s.unicode)
		}
	}
}

func TestEncodeKnownDomains(t *testing.T) {
	cases := []struct{ in, want string }{
		{"bücher", "bcher-kva"},
		{"münchen", "mnchen-3ya"},
		{"facébook", "facbook-dya"},
		{"阿里巴巴", "tsta8290bfzd"},
		{"español", "espaol-zwa"},
	}
	for _, c := range cases {
		got, err := Encode(c.in)
		if err != nil {
			t.Fatalf("Encode(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Encode(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"日本語",        // non-basic input
		"xyz-!!!",    // bad digit after delimiter
		"999999999a", // overflow-ish / invalid
	}
	for _, in := range bad {
		if _, err := Decode(in); err == nil {
			t.Errorf("Decode(%q) expected error", in)
		}
	}
}

func TestDecodeEmptyAndBasicOnly(t *testing.T) {
	got, err := Decode("abc-")
	if err != nil || got != "abc" {
		t.Fatalf("Decode(abc-) = %q, %v", got, err)
	}
	got, err = Decode("")
	if err != nil || got != "" {
		t.Fatalf("Decode(\"\") = %q, %v", got, err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(v []reflect.Value, r *rand.Rand) {
			// Random strings over a mixed alphabet exercising multi-script
			// labels and pure-ASCII corner cases.
			alphabet := []rune("abcz019-éßαβабв漢字가각エ工あ")
			n := r.Intn(12)
			runes := make([]rune, n)
			for i := range runes {
				runes[i] = alphabet[r.Intn(len(alphabet))]
			}
			v[0] = reflect.ValueOf(string(runes))
		},
	}
	f := func(s string) bool {
		enc, err := Encode(s)
		if err != nil {
			return false
		}
		if !IsASCII(enc) {
			return false
		}
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		return dec == s
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsInvalidUTF8(t *testing.T) {
	if _, err := Encode(string([]byte{0xff, 0xfe})); err == nil {
		t.Fatal("Encode should reject invalid UTF-8")
	}
}

func TestToASCIILabel(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{"example", "example", false},
		{"EXAMPLE", "example", false},
		{"bücher", "xn--bcher-kva", false},
		{"阿里巴巴", "xn--tsta8290bfzd", false},
		{"", "", true},
		{strings.Repeat("ü", 60), "", true}, // encodes to > 63 octets
	}
	for _, c := range cases {
		got, err := ToASCIILabel(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ToASCIILabel(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("ToASCIILabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestToUnicodeLabel(t *testing.T) {
	got, err := ToUnicodeLabel("xn--bcher-kva")
	if err != nil || got != "bücher" {
		t.Fatalf("ToUnicodeLabel = %q, %v", got, err)
	}
	got, err = ToUnicodeLabel("plain")
	if err != nil || got != "plain" {
		t.Fatalf("ToUnicodeLabel(plain) = %q, %v", got, err)
	}
	// Fake ACE: decodes to pure ASCII.
	if _, err = ToUnicodeLabel("xn--abc-"); err == nil {
		t.Fatal("fake-ACE label should be rejected")
	}
	if _, err = ToUnicodeLabel("xn--!!!"); err == nil {
		t.Fatal("malformed ACE label should be rejected")
	}
}

func TestToASCIIDomain(t *testing.T) {
	got, err := ToASCII("Bücher.example.COM")
	if err != nil || got != "xn--bcher-kva.example.com" {
		t.Fatalf("ToASCII = %q, %v", got, err)
	}
	got, err = ToASCII("google.com.")
	if err != nil || got != "google.com." {
		t.Fatalf("ToASCII trailing dot = %q, %v", got, err)
	}
	if _, err = ToASCII(""); err == nil {
		t.Fatal("empty domain should error")
	}
	if _, err = ToASCII("a..b"); err == nil {
		t.Fatal("empty interior label should error")
	}
}

func TestToUnicodeDomain(t *testing.T) {
	got, err := ToUnicode("xn--bcher-kva.example.com")
	if err != nil || got != "bücher.example.com" {
		t.Fatalf("ToUnicode = %q, %v", got, err)
	}
	// A broken label is preserved in ACE form and reported.
	got, err = ToUnicode("xn--!!!.example.com")
	if err == nil {
		t.Fatal("expected error for broken label")
	}
	if got != "xn--!!!.example.com" {
		t.Fatalf("broken label should be preserved, got %q", got)
	}
}

func TestIsIDN(t *testing.T) {
	cases := []struct {
		in   string
		want bool
	}{
		{"google.com", false},
		{"xn--tsta8290bfzd.com", true},
		{"sub.xn--bcher-kva.com", true},
		{"XN--BCHER-KVA.com", true},
		{"xnot.com", false},
		{"", false},
	}
	for _, c := range cases {
		if got := IsIDN(c.in); got != c.want {
			t.Errorf("IsIDN(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSLD(t *testing.T) {
	cases := []struct{ in, want string }{
		{"example.com", "example"},
		{"www.example.com", "example"},
		{"example.com.", "example"},
		{"com", "com"},
		{"", ""},
	}
	for _, c := range cases {
		if got := SLD(c.in); got != c.want {
			t.Errorf("SLD(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Every decode of a valid encode must be the identity, and the encoded form
// must never contain non-ASCII even for adversarial inputs.
func TestEncodeOutputAlwaysASCII(t *testing.T) {
	f := func(s string) bool {
		if !utf8.ValidString(s) {
			return true
		}
		enc, err := Encode(s)
		if err != nil {
			return true // overflow on absurd input is acceptable
		}
		return IsASCII(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	in := "速いブラウン狐が怠け者の犬を飛び越える"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	enc, _ := Encode("速いブラウン狐が怠け者の犬を飛び越える")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkToUnicodeLabelAppend times the decode the detection hot path
// runs, on a reused buffer behind a keep predicate, over a zone-shaped
// mix of labels: an ACE label that decodes in full, a CJK label keep
// rejects at its first insert, a mixed-case ACE label, a fake-ACE label
// and a plain raw label. One op is one label; it must not allocate.
func BenchmarkToUnicodeLabelAppend(b *testing.B) {
	keep := func(r rune) bool { return r < 0x2e80 } // no CJK
	labels := [][]byte{
		[]byte("xn--ggle-55da"),                                  // gооgle
		[]byte("xn--" + mustEncode(b, "速いブラウン狐")),                // rejected
		[]byte("XN--" + strings.ToUpper(mustEncode(b, "Äpfel"))), // mixed case
		[]byte("xn--abc-"),                                       // fake ACE
		[]byte("Plain-Label"),
	}
	buf := make([]rune, 0, 64)
	for i, want := range []error{nil, ErrRejected, nil, errFakeACE, nil} {
		if _, err := ToUnicodeLabelAppend(buf[:0], labels[i], keep); err != want {
			b.Fatalf("%s: err = %v, want %v", labels[i], err, want)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = ToUnicodeLabelAppend(buf[:0], labels[i%len(labels)], keep)
	}
}

func mustEncode(tb testing.TB, s string) string {
	tb.Helper()
	enc, err := Encode(s)
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}
