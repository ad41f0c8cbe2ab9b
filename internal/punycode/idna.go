package punycode

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ACEPrefix is the ASCII-compatible-encoding prefix that marks an IDN label
// on the wire ("xn--", RFC 5890 section 2.3.2.1).
const ACEPrefix = "xn--"

// MaxLabelLength is the DNS limit on a single label's octet length.
const MaxLabelLength = 63

// ErrLabelTooLong is returned when an encoded label exceeds 63 octets.
var ErrLabelTooLong = errors.New("idna: encoded label exceeds 63 octets")

// ErrEmptyLabel is returned for empty labels in domain conversion.
var ErrEmptyLabel = errors.New("idna: empty label")

// foldsBMP marks the Basic Multilingual Plane code points whose
// unicode.ToLower differs from themselves — ~1,200 of 65,536. The
// zone-ingestion hot path folds every decoded rune, and paying
// unicode.ToLower's case-range binary search per (almost always
// already-lowercase) rune showed up as tens of ns/line; one bit probe
// rejects the common case instead. Built from unicode.CaseRanges so
// coverage is exact by construction (Upper ∪ Lt alone would miss the
// Nl/So oddities like Roman numerals and circled letters); a test
// brute-forces the whole plane against unicode.ToLower.
var foldsBMP [1 << 16 / 64]uint64

func init() {
	for _, cr := range unicode.CaseRanges {
		lo, hi := rune(cr.Lo), rune(cr.Hi)
		if lo > 0xFFFF {
			continue
		}
		if hi > 0xFFFF {
			hi = 0xFFFF
		}
		for r := lo; r <= hi; r++ {
			if unicode.ToLower(r) != r {
				foldsBMP[r>>6] |= 1 << (uint32(r) & 63)
			}
		}
	}
}

// Fold maps one rune to its canonical lowercase form: the byte-cheap
// A–Z shift for ASCII, unicode.ToLower beyond (bitset-gated so
// already-lowercase runes cost one probe). It is the single case rule
// every path normalizes through — reference labels in
// core.NewDetector, decoded zone labels in ToUnicodeLabelAppend, and
// encoding in ToASCIILabel — so an uppercase reference and an
// uppercase-encoded zone label can never disagree about case.
//
//shamlint:noalloc
func Fold(r rune) rune {
	if r < 0x80 {
		if r >= 'A' && r <= 'Z' {
			return r + 'a' - 'A'
		}
		return r
	}
	if r <= 0xFFFF && foldsBMP[r>>6]&(1<<(uint32(r)&63)) == 0 {
		return r
	}
	return unicode.ToLower(r)
}

// FoldString lowercases s rune-wise via Fold, returning s itself (no
// allocation) when it is already folded.
func FoldString(s string) string {
	start := 0
	for start < len(s) && s[start] < 0x80 && (s[start] < 'A' || s[start] > 'Z') {
		start++ // folded ASCII, no decode
	}
	for i, r := range s[start:] {
		if Fold(r) != r {
			// Fold the remainder into a fresh builder, keeping the
			// already-folded prefix.
			i += start
			var sb strings.Builder
			sb.Grow(len(s))
			sb.WriteString(s[:i])
			for _, r := range s[i:] {
				sb.WriteRune(Fold(r))
			}
			return sb.String()
		}
	}
	return s
}

// HasACEPrefix reports whether the label carries the xn-- ACE prefix,
// for either label spelling — the allocation-free test the domain scan
// uses to pick candidate labels out of an FQDN.
func HasACEPrefix[S ByteSeq](label S) bool {
	return hasACEPrefix(label)
}

// lowerASCII lowercases ASCII letters and passes everything else through.
func lowerASCII(s string) string {
	hasUpper := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			hasUpper = true
			break
		}
	}
	if !hasUpper {
		return s
	}
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// IsASCII reports whether s contains only ASCII bytes.
func IsASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// IsACE reports whether the label carries the xn-- ACE prefix.
func IsACE(label string) bool {
	return hasACEPrefix(label)
}

// hasACEPrefix is the allocation-free case-insensitive "xn--" test shared
// by the string and []byte entry points.
func hasACEPrefix[S ByteSeq](label S) bool {
	return len(label) >= 4 &&
		(label[0] == 'x' || label[0] == 'X') &&
		(label[1] == 'n' || label[1] == 'N') &&
		label[2] == '-' && label[3] == '-'
}

// ToASCIILabel converts one label to its ASCII (ACE) form. ASCII labels are
// lowercased and returned as-is; labels with non-ASCII code points are
// case-folded (Fold, so ToASCIILabel(x) == ToASCIILabel(FoldString(x))),
// Punycode-encoded and prefixed with "xn--".
func ToASCIILabel(label string) (string, error) {
	if label == "" {
		return "", ErrEmptyLabel
	}
	if IsASCII(label) {
		return lowerASCII(label), nil
	}
	enc, err := Encode(FoldString(label))
	if err != nil {
		return "", err
	}
	out := ACEPrefix + enc
	if len(out) > MaxLabelLength {
		return "", ErrLabelTooLong
	}
	return out, nil
}

// errFakeACE flags an ACE label whose decode is pure ASCII — such a label
// must carry at least one non-ASCII code point (RFC 5891 hyphen
// restrictions), otherwise it is a fake-ACE label.
var errFakeACE = fmt.Errorf("%w: ACE label decodes to pure ASCII", ErrInvalid)

// ToUnicodeLabel converts one label to its Unicode form. Non-ACE labels are
// returned unchanged (lowercased). It is a thin wrapper over
// ToUnicodeLabelAppend, differential-tested against it.
func ToUnicodeLabel(label string) (string, error) {
	if !IsACE(label) { // the ACE-prefix test is case-insensitive
		return FoldString(label), nil
	}
	label = lowerASCII(label)
	dec, err := ToUnicodeLabelAppend(nil, label, nil)
	if err != nil {
		return "", fmt.Errorf("label %q: %w", label, err)
	}
	return string(dec), nil
}

// ToUnicodeLabelAppend appends the Unicode form of one label (ACE or not,
// any ASCII case) to dst, returning the extended slice: the zero-copy,
// zero-allocation core of ToUnicodeLabel that the detection engine feeds
// reused buffers through. Every code point is folded (Fold) as it is
// written, so labels and references meet on one normal form in one pass
// over the output; errors leave dst truncated back to its original
// length and are preallocated, so even a malformed line costs nothing in
// steady state.
//
// keep, when not nil, lets a caller that only wants labels made of
// certain code points stop an ACE decode early. The decoder offers it
// each code point it inserts — the non-basic ones, in ascending order,
// already folded — and the first one keep rejects ends the decode with
// ErrRejected, so a label in an unwanted script stops after its first
// non-basic code point instead of paying for every insert. Basic code
// points and non-ACE labels are not offered: they cost no insert, and
// the caller can check them as it consumes the output. keep must not
// allocate if the call is to stay allocation-free.
//
//shamlint:noalloc
func ToUnicodeLabelAppend[S ByteSeq](dst []rune, label S, keep func(rune) bool) ([]rune, error) {
	base := len(dst)
	if !hasACEPrefix(label) {
		// The runes are decoded as range over a string decodes them,
		// but one at a time: the []byte instantiation converts at most
		// utf8.UTFMax bytes per non-ASCII rune, which needs no
		// allocation, where range string(label) copies a label longer
		// than 32 bytes to the heap. Folding decoded runes is
		// equivalent to folding the raw bytes because A–Z never appear
		// inside a multi-byte UTF-8 sequence.
		for i := 0; i < len(label); {
			r, n := rune(label[i]), 1
			if r >= utf8.RuneSelf {
				r, n = utf8.DecodeRuneInString(string(label[i:min(i+utf8.UTFMax, len(label))]))
			}
			dst = append(dst, Fold(r))
			i += n
		}
		return dst, nil
	}
	dst, err := decodeAppend(dst, label[len(ACEPrefix):], true, keep)
	if err != nil {
		return dst[:base], err
	}
	if len(dst) == base {
		return dst, ErrEmptyLabel
	}
	// A label that inserts nothing decodes to its basic code points
	// alone, pure ASCII: a fake-ACE label. Any insert is non-ASCII, as
	// the decoder's n starts at 0x80 and only grows, so the verdict
	// concerns what was encoded, not the fold (U+212A KELVIN SIGN folds
	// to ASCII 'k', yet its label is a real IDN). Each variable-length
	// integer after the last delimiter inserts one code point, so a
	// decoded label inserted nothing exactly when it ends in the
	// delimiter.
	if label[len(label)-1] == delimiter {
		return dst[:base], errFakeACE
	}
	return dst, nil
}

// ToASCII converts a whole dotted domain name to its ACE form.
func ToASCII(domain string) (string, error) {
	if domain == "" {
		return "", ErrEmptyLabel
	}
	labels := strings.Split(domain, ".")
	for i, l := range labels {
		// A single trailing dot (root) is preserved.
		if l == "" && i == len(labels)-1 {
			continue
		}
		a, err := ToASCIILabel(l)
		if err != nil {
			return "", fmt.Errorf("domain %q: %w", domain, err)
		}
		labels[i] = a
	}
	return strings.Join(labels, "."), nil
}

// ToUnicode converts a whole dotted domain name to its Unicode form.
// Labels that fail to decode are left in ACE form, mirroring browser
// behaviour, and the first error encountered is returned alongside the
// partially converted name.
func ToUnicode(domain string) (string, error) {
	labels := strings.Split(domain, ".")
	var firstErr error
	for i, l := range labels {
		u, err := ToUnicodeLabel(l)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		labels[i] = u
	}
	return strings.Join(labels, "."), firstErr
}

// IsIDN reports whether any label of the (ASCII-form) domain carries the
// ACE prefix — the paper's Step 2 test for extracting IDNs. It allocates
// nothing: at ~134M lines per zone sweep this test runs on every line.
//
//shamlint:noalloc
func IsIDN(domain string) bool {
	return isIDN(domain)
}

// IsIDNBytes is IsIDN over a byte slice — same zero-allocation test,
// for feeders that keep zone lines in reused buffers.
//
//shamlint:noalloc
func IsIDNBytes(domain []byte) bool {
	return isIDN(domain)
}

func isIDN[S ByteSeq](domain S) bool {
	start := 0
	for i := 0; i <= len(domain); i++ {
		if i == len(domain) || domain[i] == '.' {
			if hasACEPrefix(domain[start:i]) {
				return true
			}
			start = i + 1
		}
	}
	return false
}

// SLD returns the second-level label of a dotted domain name: for
// "foo.example.com" it returns "example" when tld="com" strips one suffix
// label. With an empty tld it returns the label immediately left of the
// final dot-separated label.
func SLD(domain string) string {
	labels := strings.Split(strings.TrimSuffix(domain, "."), ".")
	if len(labels) < 2 {
		if len(labels) == 1 {
			return labels[0]
		}
		return ""
	}
	return labels[len(labels)-2]
}
