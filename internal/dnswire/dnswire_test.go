package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"example.com", "example.com."},
		{"Example.COM.", "example.com."},
		{"", "."},
		{".", "."},
		{"a.b.c", "a.b.c."},
		{"A\x80B", "a\x80b."}, // bytes that are not UTF-8 pass through
		{"Éx.COM", "Éx.com."}, // ASCII-only case folding (RFC 4343)
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplitLabels(t *testing.T) {
	if got := SplitLabels("a.b.com."); len(got) != 3 || got[0] != "a" || got[2] != "com" {
		t.Errorf("SplitLabels = %v", got)
	}
	if got := SplitLabels("."); got != nil {
		t.Errorf("SplitLabels(root) = %v, want nil", got)
	}
}

func TestNameRoundTrip(t *testing.T) {
	names := []string{
		".",
		"com.",
		"example.com.",
		"xn--fcbook-dya.com.",
		strings.Repeat("a", 63) + ".com.",
	}
	for _, name := range names {
		buf, err := packName(nil, name, nil)
		if err != nil {
			t.Fatalf("packName(%q): %v", name, err)
		}
		got, off, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", name, err)
		}
		if got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
		if off != len(buf) {
			t.Errorf("offset after %q = %d, want %d", name, off, len(buf))
		}
	}
}

func TestPackNameLimits(t *testing.T) {
	if _, err := packName(nil, strings.Repeat("a", 64)+".com", nil); err != ErrLabelTooLong {
		t.Errorf("long label: got %v, want ErrLabelTooLong", err)
	}
	long := strings.Repeat("aaaaaaa.", 40) // 320 octets
	if _, err := packName(nil, long, nil); err != ErrNameTooLong {
		t.Errorf("long name: got %v, want ErrNameTooLong", err)
	}
}

func TestNameCompression(t *testing.T) {
	cmp := make(nameCompressor)
	buf, err := packName(nil, "mail.example.com.", cmp)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := len(buf)
	buf, err = packName(buf, "www.example.com.", cmp)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should be 4(www)+2(pointer) = 6 octets.
	if got := len(buf) - firstLen; got != 6 {
		t.Errorf("compressed second name uses %d octets, want 6", got)
	}
	name, _, err := unpackName(buf, firstLen)
	if err != nil {
		t.Fatal(err)
	}
	if name != "www.example.com." {
		t.Errorf("decompressed = %q", name)
	}
}

func TestPointerLoopDetected(t *testing.T) {
	// A pointer that points at itself.
	msg := []byte{0xC0, 0x00}
	if _, _, err := unpackName(msg, 0); err != ErrPointerLoop {
		t.Errorf("self-pointer: got %v, want ErrPointerLoop", err)
	}
}

func TestUnpackNameTruncated(t *testing.T) {
	cases := [][]byte{
		{},           // empty
		{5, 'a'},     // label runs past end
		{0xC0},       // pointer missing second octet
		{0x80, 0x01}, // reserved label type
	}
	for _, msg := range cases {
		if _, _, err := unpackName(msg, 0); err == nil {
			t.Errorf("unpackName(% x) succeeded, want error", msg)
		}
	}
}

func TestCaseInsensitiveDecode(t *testing.T) {
	buf := []byte{3, 'W', 'w', 'W', 3, 'C', 'o', 'M', 0}
	name, _, err := unpackName(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name != "www.com." {
		t.Errorf("got %q, want lowercase form", name)
	}
}

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{
			ID: 0xBEEF, Response: true, Authoritative: true,
			RecursionDesired: true, RCode: RCodeSuccess,
		},
		Questions: []Question{{Name: "example.com.", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			{Name: "example.com.", Class: ClassIN, TTL: 300,
				Data: A{Addr: mustAddr(t, "192.0.2.1")}},
			{Name: "example.com.", Class: ClassIN, TTL: 300,
				Data: AAAA{Addr: mustAddr(t, "2001:db8::1")}},
			{Name: "example.com.", Class: ClassIN, TTL: 600,
				Data: MX{Preference: 10, Host: "mail.example.com."}},
			{Name: "example.com.", Class: ClassIN, TTL: 600,
				Data: TXT{Strings: []string{"v=spf1 -all", "second"}}},
		},
		Authority: []Record{
			{Name: "example.com.", Class: ClassIN, TTL: 86400,
				Data: NS{Host: "ns1.example.com."}},
			{Name: "example.com.", Class: ClassIN, TTL: 86400,
				Data: SOA{MName: "ns1.example.com.", RName: "hostmaster.example.com.",
					Serial: 2024010101, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}},
		},
		Additional: []Record{
			{Name: "www.example.com.", Class: ClassIN, TTL: 60,
				Data: CNAME{Target: "example.com."}},
		},
	}
	buf, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(buf); err != nil {
		t.Fatalf("Unpack: %v\n% x", err, buf)
	}
	if got.Header != m.Header {
		t.Errorf("header = %+v, want %+v", got.Header, m.Header)
	}
	if len(got.Answers) != 4 || len(got.Authority) != 2 || len(got.Additional) != 1 {
		t.Fatalf("section sizes = %d/%d/%d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	if a := got.Answers[0].Data.(A); a.Addr != mustAddr(t, "192.0.2.1") {
		t.Errorf("A = %v", a.Addr)
	}
	if mx := got.Answers[2].Data.(MX); mx.Preference != 10 || mx.Host != "mail.example.com." {
		t.Errorf("MX = %+v", mx)
	}
	if txt := got.Answers[3].Data.(TXT); len(txt.Strings) != 2 || txt.Strings[0] != "v=spf1 -all" {
		t.Errorf("TXT = %+v", txt)
	}
	soa := got.Authority[1].Data.(SOA)
	if soa.Serial != 2024010101 || soa.MName != "ns1.example.com." {
		t.Errorf("SOA = %+v", soa)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := NewQuery(1, "a.very.long.shared.suffix.example.com.", TypeNS)
	for i := 0; i < 5; i++ {
		m.Answers = append(m.Answers, Record{
			Name: "a.very.long.shared.suffix.example.com.", Class: ClassIN, TTL: 60,
			Data: NS{Host: "ns.very.long.shared.suffix.example.com."},
		})
	}
	packed, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Rough uncompressed estimate: each of the 6 names would repeat
	// ~39 octets. Compression should cut the total well below that.
	if len(packed) > 180 {
		t.Errorf("compressed message is %d octets, expected < 180", len(packed))
	}
	var got Message
	if err := got.Unpack(packed); err != nil {
		t.Fatal(err)
	}
	if got.Answers[4].Data.(NS).Host != "ns.very.long.shared.suffix.example.com." {
		t.Errorf("round trip lost name: %v", got.Answers[4])
	}
}

func TestUnknownTypeRoundTrip(t *testing.T) {
	m := NewQuery(7, "example.com.", Type(99))
	m.Answers = append(m.Answers, Record{
		Name: "example.com.", Class: ClassIN, TTL: 1,
		Data: Unknown{RRType: Type(99), Data: []byte{1, 2, 3, 4}},
	})
	buf, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(buf); err != nil {
		t.Fatal(err)
	}
	u := got.Answers[0].Data.(Unknown)
	if u.RRType != 99 || !bytes.Equal(u.Data, []byte{1, 2, 3, 4}) {
		t.Errorf("unknown = %+v", u)
	}
}

func TestTruncate(t *testing.T) {
	m := NewQuery(3, "example.com.", TypeA)
	m.Header.Response = true
	for i := 0; i < 100; i++ {
		m.Answers = append(m.Answers, Record{
			Name: "example.com.", Class: ClassIN, TTL: 60,
			Data: TXT{Strings: []string{strings.Repeat("x", 100)}},
		})
	}
	if err := m.Truncate(MaxUDPPayload); err != nil {
		t.Fatal(err)
	}
	buf, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > MaxUDPPayload {
		t.Errorf("truncated message is %d octets", len(buf))
	}
	if !m.Header.Truncated {
		t.Error("TC bit not set after truncation")
	}
}

func TestTruncateNoopWhenSmall(t *testing.T) {
	m := NewQuery(3, "example.com.", TypeA)
	if err := m.Truncate(MaxUDPPayload); err != nil {
		t.Fatal(err)
	}
	if m.Header.Truncated {
		t.Error("TC bit set on small message")
	}
}

func TestUnpackRejectsHostileCounts(t *testing.T) {
	// Header claiming 65535 answers with no body.
	msg := make([]byte, 12)
	msg[6] = 0xFF
	msg[7] = 0xFF
	var m Message
	if err := m.Unpack(msg); err != ErrTooManyRecords {
		t.Errorf("got %v, want ErrTooManyRecords", err)
	}
}

func TestUnpackTrailingBytes(t *testing.T) {
	m := NewQuery(1, "example.com.", TypeA)
	buf, err := m.Pack(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xAB)
	var got Message
	if err := got.Unpack(buf); err != ErrTrailingBytes {
		t.Errorf("got %v, want ErrTrailingBytes", err)
	}
}

func TestNewResponse(t *testing.T) {
	q := NewQuery(42, "foo.com.", TypeMX)
	r := NewResponse(q, RCodeNameError)
	if !r.Header.Response || r.Header.ID != 42 || r.Header.RCode != RCodeNameError {
		t.Errorf("response header = %+v", r.Header)
	}
	if len(r.Questions) != 1 || r.Questions[0].Name != "foo.com." {
		t.Errorf("question not echoed: %+v", r.Questions)
	}
}

func TestTypeStrings(t *testing.T) {
	if TypeMX.String() != "MX" || Type(9999).String() != "TYPE9999" {
		t.Error("Type.String mismatch")
	}
	if got, ok := TypeByName("aaaa"); !ok || got != TypeAAAA {
		t.Errorf("TypeByName(aaaa) = %v, %v", got, ok)
	}
	if _, ok := TypeByName("NOPE"); ok {
		t.Error("TypeByName accepted junk")
	}
	if RCodeNameError.String() != "NXDOMAIN" || RCode(14).String() != "RCODE14" {
		t.Error("RCode.String mismatch")
	}
	if ClassIN.String() != "IN" || Class(7).String() != "CLASS7" {
		t.Error("Class.String mismatch")
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	f := func(id uint16, resp, aa, tc, rd, ra bool, op, rc uint8) bool {
		h := Header{
			ID: id, Response: resp, Authoritative: aa, Truncated: tc,
			RecursionDesired: rd, RecursionAvailable: ra,
			Opcode: Opcode(op & 0xf), RCode: RCode(rc & 0xf),
		}
		buf := h.pack(nil, [4]uint16{})
		var got Header
		_, _, err := got.unpack(buf)
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNameRoundTripProperty packs and unpacks arbitrary well-formed
// names built from random label lengths.
func TestNameRoundTripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		// Derive 1-4 labels of lengths 1-20 from the seed.
		s := seed
		n := int(s%4) + 1
		var labels []string
		for i := 0; i < n; i++ {
			s = s*1664525 + 1013904223
			l := int(s%20) + 1
			labels = append(labels, strings.Repeat(string(rune('a'+int(s%26))), l))
		}
		name := strings.Join(labels, ".") + "."
		buf, err := packName(nil, name, nil)
		if err != nil {
			return false
		}
		got, _, err := unpackName(buf, 0)
		return err == nil && got == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnpackFuzzDoesNotPanic(t *testing.T) {
	// Deterministic pseudo-random corpus; Unpack must return an error
	// or succeed but never panic or over-allocate.
	var m Message
	s := uint64(12345)
	for i := 0; i < 2000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		n := int(s % 64)
		buf := make([]byte, n)
		for j := range buf {
			s = s*6364136223846793005 + 1442695040888963407
			buf[j] = byte(s >> 33)
		}
		_ = m.Unpack(buf) // must not panic
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Name: "a.com.", Class: ClassIN, TTL: 60,
		Data: MX{Preference: 5, Host: "mx.a.com."}}
	want := "a.com. 60 IN MX 5 mx.a.com."
	if got := r.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// FuzzUnpack: Unpack never panics, and any message it accepts packs and
// unpacks back to the same Message. The seed corpus under testdata/fuzz
// holds messages written by Pack; `go test -fuzz=FuzzUnpack` explores
// further.
func FuzzUnpack(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unpack(data); err != nil {
			return
		}
		buf, err := m.Pack(nil)
		if err != nil {
			t.Fatalf("Unpack(%q) accepted a message Pack rejects: %v\n%s", data, err, &m)
		}
		var again Message
		if err := again.Unpack(buf); err != nil {
			t.Fatalf("Unpack of Pack(%q) = %q failed: %v", data, buf, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("Unpack(%q) round trip changed the message:\n%s\nbecame\n%s", data, &m, &again)
		}
	})
}
