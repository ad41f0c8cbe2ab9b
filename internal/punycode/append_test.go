package punycode

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/stats"
)

// seedDecode is the pre-append-refactor Decode, copied verbatim from the
// seed engine. DecodeAppend must agree with it on arbitrary input — same
// output, same accept/reject decisions — which is what licenses making
// Decode a thin wrapper.
func seedDecode(input string) (string, error) {
	for i := 0; i < len(input); i++ {
		if input[i] >= 0x80 {
			return "", fmt.Errorf("%w: non-basic code point in input", ErrInvalid)
		}
	}
	var output []rune
	pos := 0
	if i := strings.LastIndexByte(input, delimiter); i >= 0 {
		for _, c := range input[:i] {
			output = append(output, c)
		}
		pos = i + 1
	}
	n := int32(initialN)
	i := int32(0)
	bias := int32(initialBias)
	for pos < len(input) {
		oldi := i
		w := int32(1)
		for k := int32(base); ; k += base {
			if pos >= len(input) {
				return "", fmt.Errorf("%w: truncated variable-length integer", ErrInvalid)
			}
			digit := byteToDigit(input[pos])
			pos++
			if digit < 0 {
				return "", fmt.Errorf("%w: bad digit %q", ErrInvalid, input[pos-1])
			}
			if digit > (maxInt32-i)/w {
				return "", ErrOverflow
			}
			i += digit * w
			t := k - bias
			if t < tmin {
				t = tmin
			} else if t > tmax {
				t = tmax
			}
			if digit < t {
				break
			}
			if w > maxInt32/(base-t) {
				return "", ErrOverflow
			}
			w *= base - t
		}
		outLen := int32(len(output)) + 1
		bias = adapt(i-oldi, outLen, oldi == 0)
		if i/outLen > maxInt32-n {
			return "", ErrOverflow
		}
		n += i / outLen
		i %= outLen
		if n > utf8.MaxRune || (n >= 0xD800 && n <= 0xDFFF) {
			return "", fmt.Errorf("%w: decoded code point out of range", ErrInvalid)
		}
		output = append(output, 0)
		copy(output[i+1:], output[i:])
		output[i] = rune(n)
		i++
	}
	return string(output), nil
}

// seedToUnicodeLabel is the pre-refactor ToUnicodeLabel over seedDecode.
func seedToUnicodeLabel(label string) (string, error) {
	label = lowerASCII(label)
	if !IsACE(label) {
		return label, nil
	}
	dec, err := seedDecode(label[len(ACEPrefix):])
	if err != nil {
		return "", fmt.Errorf("label %q: %w", label, err)
	}
	if dec == "" {
		return "", fmt.Errorf("label %q: %w", label, ErrEmptyLabel)
	}
	if IsASCII(dec) {
		return "", fmt.Errorf("label %q decodes to pure ASCII: %w", label, ErrInvalid)
	}
	return dec, nil
}

// foldedSeedLabel is ToUnicodeLabelAppend's contract spelled out over
// seedDecode, independent of the decoder under test: a non-ACE label
// folds rune by rune; an ACE label's tail decodes by seedDecode, must
// decode to something (ErrEmptyLabel) that holds a non-ASCII code point
// before folding (a fake-ACE label is ErrInvalid), and then folds rune
// by rune.
func foldedSeedLabel(label string) (string, error) {
	if !HasACEPrefix(label) {
		return foldRunes(label), nil
	}
	dec, err := seedDecode(label[len(ACEPrefix):])
	switch {
	case err != nil:
		return "", err
	case dec == "":
		return "", ErrEmptyLabel
	case IsASCII(dec):
		return "", errFakeACE
	}
	return foldRunes(dec), nil
}

// foldRunes folds s one rune at a time.
func foldRunes(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(Fold(r))
	}
	return b.String()
}

// checkFoldedLabel compares ToUnicodeLabelAppend, nil keep, in both
// spellings, with foldedSeedLabel: the same value, and on rejection
// the same error class.
func checkFoldedLabel(t *testing.T, label string) {
	t.Helper()
	want, wantErr := foldedSeedLabel(label)
	got, gotErr := ToUnicodeLabelAppend(nil, label, nil)
	bgot, bErr := ToUnicodeLabelAppend(nil, []byte(label), nil)
	if errClass(gotErr) != errClass(wantErr) || string(got) != want ||
		errClass(bErr) != errClass(wantErr) || string(bgot) != want {
		t.Fatalf("ToUnicodeLabelAppend(%q) = %q, %v ([]byte: %q, %v); folded seed = %q, %v",
			label, string(got), gotErr, string(bgot), bErr, want, wantErr)
	}
}

// errClass names the sentinel an error unwraps to: ErrOverflow,
// ErrInvalid, or neither (nil for success).
func errClass(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrOverflow):
		return ErrOverflow
	case errors.Is(err, ErrInvalid):
		return ErrInvalid
	}
	return err
}

// checkDecode asserts every decode entry point agrees with the seed on
// one input: same output, and on rejection the same error class.
func checkDecode(t *testing.T, input string) {
	t.Helper()
	want, wantErr := seedDecode(input)

	got, gotErr := Decode(input)
	if errClass(gotErr) != errClass(wantErr) || got != want {
		t.Fatalf("Decode(%q) = %q, %v; seed = %q, %v", input, got, gotErr, want, wantErr)
	}

	// String instantiation, appending to a prefixed buffer: the prefix
	// must survive untouched in both the success and error case.
	prefix := []rune{'p', 'f', 'x'}
	buf := append([]rune(nil), prefix...)
	buf, gotErr = DecodeAppend(buf, input)
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("DecodeAppend(%q) err = %v; seed err = %v", input, gotErr, wantErr)
	}
	if string(buf[:3]) != "pfx" {
		t.Fatalf("DecodeAppend(%q) clobbered the prefix: %q", input, string(buf[:3]))
	}
	if wantErr == nil {
		if string(buf[3:]) != want {
			t.Fatalf("DecodeAppend(%q) = %q, want %q", input, string(buf[3:]), want)
		}
	} else if len(buf) != 3 {
		t.Fatalf("DecodeAppend(%q) left %d stale runes after error", input, len(buf)-3)
	}

	// []byte instantiation must match the string one exactly.
	bbuf, bErr := DecodeAppend(nil, []byte(input))
	if errClass(bErr) != errClass(wantErr) || string(bbuf) != want {
		t.Fatalf("DecodeAppend([]byte %q) = %q, %v; want %q, %v", input, string(bbuf), bErr, want, wantErr)
	}
}

// TestDecodeAppendDifferential fuzzes DecodeAppend against the seed
// decoder on three input families: valid encodings (via Encode),
// mutated encodings, and raw garbage.
func TestDecodeAppendDifferential(t *testing.T) {
	rng := stats.NewRNG(0x5eed)
	alphabet := []rune("abz09-éи界ÿ\U0001F600")
	for iter := 0; iter < 3000; iter++ {
		n := rng.Intn(12)
		runes := make([]rune, n)
		for i := range runes {
			runes[i] = alphabet[rng.Intn(len(alphabet))]
		}
		enc, err := Encode(string(runes))
		if err != nil {
			continue
		}
		checkDecode(t, enc)
		// Mutate one byte of the valid encoding.
		if len(enc) > 0 {
			b := []byte(enc)
			b[rng.Intn(len(b))] = byte(rng.Intn(128))
			checkDecode(t, string(b))
		}
		// Raw garbage, possibly non-ASCII.
		g := make([]byte, rng.Intn(10))
		for i := range g {
			g[i] = byte(rng.Intn(256))
		}
		checkDecode(t, string(g))
	}
	// Regression corner cases.
	for _, in := range []string{"", "-", "--", "a-", "-a", "tda", "99999999", "bcher-kva", "ggle-55da"} {
		checkDecode(t, in)
	}
}

// TestDecodeOverflowBoundaries drives each reachable ErrOverflow return
// of DecodeAppend from both sides of its bound. "w416146o" is the
// variable-length integer maxInt32 under the initial bias.
func TestDecodeOverflowBoundaries(t *testing.T) {
	for _, c := range []struct {
		in   string
		want error
		why  string
	}{
		{"w416146o", ErrOverflow, "i == maxInt32 passes the digit check; n + i/outLen overflows"},
		{"w416146p", ErrOverflow, "the last digit one higher: i + digit*w overflows"},
		{"a-w416146p", ErrOverflow, "the same past a basic prefix"},
		{"9016146o", ErrOverflow, "i == maxInt32-127: n + i/outLen overflows by one"},
		{"8016146o", ErrInvalid, "i == maxInt32-128: n lands on maxInt32, no overflow but out of range"},
		{"a-w416146o", ErrInvalid, "i == maxInt32 passes the digit check; outLen 2 halves n's step: out of range"},
	} {
		_, err := DecodeAppend(nil, c.in)
		if errClass(err) != c.want {
			t.Errorf("DecodeAppend(%q) err = %v, want %v (%s)", c.in, err, c.want, c.why)
		}
		checkDecode(t, c.in)
	}
}

// TestDecodeWeightOverflowUnreachable pins why no input reaches the
// remaining ErrOverflow return, w*(base-t) > maxInt32, which DecodeAppend
// keeps as RFC 3492 section 6.2 writes it. The weight w depends only on
// the bias, and the cheapest digits that keep an integer going (each
// equal to its threshold t) add the least to i, so if the digit check
// fires first on that path it fires first on every path. adapt is
// nondecreasing in delta, and a larger numPoints or firstTime only
// lowers it, so adapt(maxInt32, 1, false) bounds every bias a decode
// can reach.
func TestDecodeWeightOverflowUnreachable(t *testing.T) {
	maxBias := adapt(maxInt32, 1, false)
	for bias := int32(0); bias <= maxBias; bias++ {
		i, w := int64(0), int64(1)
		for k := int32(base); ; k += base {
			th := k - bias
			if th < tmin {
				th = tmin
			} else if th > tmax {
				th = tmax
			}
			if i+int64(th)*w > int64(maxInt32) {
				break // the digit check rejects first
			}
			i += int64(th) * w
			if w*int64(base-th) > int64(maxInt32) {
				t.Fatalf("bias %d reaches the weight overflow at k=%d", bias, k)
			}
			w *= int64(base - th)
		}
	}
}

// checkLabel asserts the label-level append variant agrees with the
// folded seed decode (checkFoldedLabel) and with ToUnicodeLabel, which
// wraps it.
func checkLabel(t *testing.T, label string) {
	t.Helper()
	checkFoldedLabel(t, label)
	want, wantErr := ToUnicodeLabel(label)

	got, gotErr := ToUnicodeLabelAppend(nil, label, nil)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("ToUnicodeLabelAppend(%q) err = %v; ToUnicodeLabel err = %v", label, gotErr, wantErr)
	}
	if wantErr == nil && string(got) != want {
		t.Fatalf("ToUnicodeLabelAppend(%q) = %q, want %q", label, string(got), want)
	}
	bgot, bErr := ToUnicodeLabelAppend(nil, []byte(label), nil)
	if (bErr != nil) != (wantErr != nil) || string(bgot) != string(got) {
		t.Fatalf("ToUnicodeLabelAppend([]byte %q) = %q, %v; string variant %q, %v",
			label, string(bgot), bErr, string(got), gotErr)
	}

	// And the wrapper itself against the seed implementation's
	// accept/reject decision (seedToUnicodeLabel only reports errors
	// faithfully; its success value is compared through seedDecode).
	_, seedErr := seedToUnicodeLabel(label)
	if (wantErr != nil) != (seedErr != nil) {
		t.Fatalf("ToUnicodeLabel(%q) err = %v; seed err = %v", label, wantErr, seedErr)
	}
}

func TestToUnicodeLabelAppendDifferential(t *testing.T) {
	fixed := []string{
		"", "google", "GOOGLE", "xn--", "XN--", "xn--a", "xn--tda",
		"xn--bcher-kva", "xn--BCHER-KVA", "xn--ggle-55da", "xn--55da",
		"xn---", "xn--!!!", "plain-ascii", "ünïcode", "ÜNÏCODE",
		"xn--xn---epa", "xn--aa-!!", "xn--99999999",
	}
	fixed = append(fixed, foldSeeds...)
	for _, l := range fixed {
		checkLabel(t, l)
	}
	rng := stats.NewRNG(0xace)
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(14)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(32 + rng.Intn(96))
		}
		checkLabel(t, string(b))
		checkLabel(t, "xn--"+string(b))
	}
}

// TestDecodeAppendSteadyStateAllocs proves the ingestion contract: with
// a warm buffer, decoding an ACE label (or rejecting a malformed one)
// allocates nothing.
func TestDecodeAppendSteadyStateAllocs(t *testing.T) {
	buf := make([]rune, 0, 64)
	label := []byte("ggle-55da")
	bad := []byte("!!bad!!")
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = DecodeAppend(buf[:0], label)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeAppend allocates %.1f per decode; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeAppend(buf[:0], bad); err == nil {
			t.Fatal("want error")
		}
	}); n != 0 {
		t.Errorf("DecodeAppend allocates %.1f per rejected decode; want 0", n)
	}
	full := []byte("xn--ggle-55da")
	if n := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = ToUnicodeLabelAppend(buf[:0], full, nil)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ToUnicodeLabelAppend allocates %.1f per label; want 0", n)
	}
}

func TestDecodeAppendErrorsUnwrap(t *testing.T) {
	for _, in := range []string{"é", "a", "!!!", "a-\x7f"} {
		if _, err := DecodeAppend(nil, in); err != nil && !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrOverflow) {
			t.Errorf("DecodeAppend(%q) error %v unwraps to neither ErrInvalid nor ErrOverflow", in, err)
		}
	}
}

// FuzzDecodeAppend keeps the differential check available to `go test
// -fuzz`; under plain `go test` the seed corpus doubles as regression
// coverage.
func FuzzDecodeAppend(f *testing.F) {
	for _, s := range []string{"", "tda", "bcher-kva", "ggle-55da", "--", "a-b-c", "\x80", "99999999", "w416146o", "w416146p", "8016146o", "9016146o"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want, wantErr := seedDecode(input)
		got, gotErr := DecodeAppend(nil, input)
		if errClass(gotErr) != errClass(wantErr) || string(got) != want {
			t.Fatalf("DecodeAppend(%q) = %q, %v; seed = %q, %v", input, string(got), gotErr, want, wantErr)
		}
	})
}

// seededKeep returns a keep predicate that rejects about one code point
// in four, chosen by a hash of the code point and seed, and records
// every code point it is offered.
func seededKeep(seed uint64, offered *[]rune) func(rune) bool {
	return func(r rune) bool {
		*offered = append(*offered, r)
		h := (uint64(r) ^ seed) * 0x9e3779b97f4a7c15
		return h>>62 != 0
	}
}

// checkKeep compares ToUnicodeLabelAppend with a seeded keep predicate
// against the nil-keep result for one label. When the nil-keep decode
// fails, the keep decode fails too. When it succeeds, the code points
// keep is offered are the label's inserted (non-basic) code points,
// folded, in decode order, up to the first rejection; if keep accepts
// them all the outputs are identical, otherwise the result is
// ErrRejected with dst truncated. A non-ACE label is never offered to
// keep.
func checkKeep(t *testing.T, label string, seed uint64) {
	t.Helper()
	prefix := []rune("pre")
	want, wantErr := ToUnicodeLabelAppend(prefix[:3:3], label, nil)
	var offered []rune
	got, gotErr := ToUnicodeLabelAppend(prefix[:3:3], label, seededKeep(seed, &offered))
	if string(got[:3]) != "pre" {
		t.Fatalf("keep decode of %q clobbered the prefix: %q", label, string(got))
	}
	if wantErr != nil {
		if gotErr == nil || len(got) != 3 {
			t.Fatalf("keep decode of %q = %q, %v; nil-keep failed with %v", label, string(got), gotErr, wantErr)
		}
		return
	}
	var inserted []rune
	if HasACEPrefix(label) {
		raw, err := DecodeAppend(nil, strings.ToLower(label[len(ACEPrefix):]))
		if err != nil {
			t.Fatalf("DecodeAppend(%q) failed after ToUnicodeLabelAppend succeeded: %v", label, err)
		}
		for _, r := range raw {
			if r >= 0x80 {
				inserted = append(inserted, r)
			}
		}
		// Code points are inserted in ascending order.
		slices.Sort(inserted)
	}
	keep := seededKeep(seed, new([]rune))
	rejected := -1
	for i, r := range inserted {
		if !keep(Fold(r)) {
			rejected = i
			break
		}
	}
	wantOffered := inserted
	if rejected >= 0 {
		wantOffered = inserted[:rejected+1]
	}
	if len(offered) != len(wantOffered) {
		t.Fatalf("keep decode of %q offered %q, want %q folded", label, string(offered), string(wantOffered))
	}
	for i, r := range wantOffered {
		if offered[i] != Fold(r) {
			t.Fatalf("keep decode of %q offered %q, want %q folded", label, string(offered), string(wantOffered))
		}
	}
	if rejected < 0 {
		if gotErr != nil || string(got) != string(want) {
			t.Fatalf("keep decode of %q = %q, %v; nil-keep = %q", label, string(got), gotErr, string(want))
		}
		return
	}
	if !errors.Is(gotErr, ErrRejected) || len(got) != 3 {
		t.Fatalf("keep decode of %q = %q, %v; want ErrRejected with dst truncated", label, string(got), gotErr)
	}
	bgot, bErr := ToUnicodeLabelAppend(nil, []byte(label), seededKeep(seed, new([]rune)))
	if bErr != gotErr || len(bgot) != 0 {
		t.Fatalf("keep decode of []byte %q = %q, %v; string variant %v", label, string(bgot), bErr, gotErr)
	}
}

// TestToUnicodeLabelAppendKeep runs checkKeep over encoded random
// labels mixing ASCII, uppercase, Cyrillic, CJK and case-folding code
// points such as U+212A KELVIN SIGN, plus malformed and non-ACE labels.
func TestToUnicodeLabelAppendKeep(t *testing.T) {
	pool := []rune("abcXYZ09-оаеАЕ中文例äÜßΣσKİ\U0001F600")
	rng := stats.NewRNG(0x6b656570)
	for iter := 0; iter < 3000; iter++ {
		label := make([]rune, 1+rng.Intn(10))
		for i := range label {
			label[i] = pool[rng.Intn(len(pool))]
		}
		seed := uint64(rng.Intn(1 << 30))
		enc, err := Encode(string(label))
		if err != nil {
			t.Fatal(err)
		}
		checkKeep(t, ACEPrefix+enc, seed)
		checkKeep(t, "XN--"+strings.ToUpper(enc), seed)
		checkKeep(t, string(label), seed)
		checkKeep(t, ACEPrefix+enc[:rng.Intn(len(enc)+1)]+"!", seed)
	}
	for _, l := range []string{"xn--", "xn--bcher-kva", "xn--abc-", "xn--ggle-55da", "plain", "xn--99999999"} {
		for seed := uint64(0); seed < 8; seed++ {
			checkKeep(t, l, seed)
		}
	}
}

// foldSeeds are labels whose decode the fold must rewrite: ACE labels
// in mixed case, and labels whose inserted code points are upper case
// (U+00C4 Ä, U+0410 А), which the encoder keeps as they are.
var foldSeeds = func() []string {
	var out []string
	for _, u := range []string{"Äpfel", "bÄr", "Аpple", "gАА", "ÄА", "KÄSE"} {
		enc, err := Encode(u)
		if err != nil {
			panic(err)
		}
		out = append(out, ACEPrefix+enc, "XN--"+strings.ToUpper(enc), "Xn--"+enc, u)
	}
	return append(out, "xn--Bcher-KVA", "XN--ggle-55DA", "xn--GGLE-55da")
}()

// FuzzToUnicodeLabelKeep runs checkKeep, and the folded seed decode
// oracle (checkFoldedLabel), on arbitrary ACE and non-ACE labels with a
// fuzzed keep seed.
func FuzzToUnicodeLabelKeep(f *testing.F) {
	for _, s := range []string{"", "tda", "bcher-kva", "ggle-55da", "--", "a-b-c", "\x80", "99999999", "fiqs8s", "n3h"} {
		f.Add(s, uint64(1))
	}
	for _, l := range foldSeeds {
		if HasACEPrefix(l) {
			f.Add(l[len(ACEPrefix):], uint64(2))
		}
	}
	f.Fuzz(func(t *testing.T, input string, seed uint64) {
		for _, l := range []string{ACEPrefix + input, input} {
			checkKeep(t, l, seed)
			checkFoldedLabel(t, l)
		}
	})
}
