// Package punycode implements the Punycode bootstring encoding of RFC 3492
// and the IDNA label conversions (ToASCII/ToUnicode with the "xn--" ACE
// prefix) that the paper's Step 2 relies on to extract IDNs from domain
// lists.
//
// The append forms, DecodeAppend and ToUnicodeLabelAppend, decode into a
// caller's buffer and allocate nothing in steady state. The decoder
// writes each label once: ToUnicodeLabelAppend folds every code point
// as the decoder emits it (the A–Z shift as basic code points are
// copied, Fold for each inserted one), so no second pass rewrites the
// output, while DecodeAppend keeps the encoder's case. Every decoded
// code point beyond ASCII costs an insert, so ToUnicodeLabelAppend also
// takes a keep predicate: it sees each inserted code point, folded, in
// ascending order, and the first one it rejects ends the decode with
// ErrRejected. A detector passes the code points its references can
// contain, so a label in another script stops at its first non-basic
// code point. A nil keep decodes the whole label.
package punycode

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Bootstring parameters for Punycode, RFC 3492 section 5.
const (
	base        = 36
	tmin        = 1
	tmax        = 26
	skew        = 38
	damp        = 700
	initialBias = 72
	initialN    = 128
	delimiter   = '-'
)

// ErrOverflow is returned when decoding or encoding would exceed the rune
// space; RFC 3492 section 6.4 requires detecting it rather than wrapping.
var ErrOverflow = errors.New("punycode: overflow")

// ErrInvalid is returned for malformed Punycode input.
var ErrInvalid = errors.New("punycode: invalid input")

// ErrRejected is returned by ToUnicodeLabelAppend when its keep
// predicate rejects a code point the decoder inserts. The label may be
// well-formed; the caller asked to stop at that code point. Like the
// decode errors below it is preallocated, so a rejection costs nothing.
var ErrRejected = errors.New("punycode: code point rejected")

// The decode hot path returns preallocated errors so a malformed label in
// a zone sweep costs no allocation; all of them unwrap to ErrInvalid.
var (
	errNonBasic   = fmt.Errorf("%w: non-basic code point in input", ErrInvalid)
	errTruncated  = fmt.Errorf("%w: truncated variable-length integer", ErrInvalid)
	errBadDigit   = fmt.Errorf("%w: bad digit", ErrInvalid)
	errOutOfRange = fmt.Errorf("%w: decoded code point out of range", ErrInvalid)
)

const maxInt32 = int32(^uint32(0) >> 1)

// digitToByte maps a digit value 0..35 to its lowercase code point.
func digitToByte(d int32) byte {
	if d < 26 {
		return byte('a' + d)
	}
	return byte('0' + d - 26)
}

// byteToDigit maps a basic code point to its digit value, or -1.
func byteToDigit(b byte) int32 {
	switch {
	case b >= 'a' && b <= 'z':
		return int32(b - 'a')
	case b >= 'A' && b <= 'Z':
		return int32(b - 'A')
	case b >= '0' && b <= '9':
		return int32(b-'0') + 26
	}
	return -1
}

// adapt is the bias adaptation function of RFC 3492 section 6.1.
func adapt(delta int32, numPoints int32, firstTime bool) int32 {
	if firstTime {
		delta /= damp
	} else {
		delta /= 2
	}
	delta += delta / numPoints
	k := int32(0)
	for delta > ((base-tmin)*tmax)/2 {
		delta /= base - tmin
		k += base
	}
	return k + (base-tmin+1)*delta/(delta+skew)
}

// Encode converts a Unicode string to its Punycode form (RFC 3492
// section 6.3). The result contains only basic (ASCII) code points.
func Encode(input string) (string, error) {
	if !utf8.ValidString(input) {
		return "", fmt.Errorf("%w: not valid UTF-8", ErrInvalid)
	}
	runes := []rune(input)
	var out strings.Builder
	basic := 0
	for _, r := range runes {
		if r < initialN {
			out.WriteByte(byte(r))
			basic++
		}
	}
	h := int32(basic)
	b := h
	if basic > 0 {
		out.WriteByte(delimiter)
	}
	n := int32(initialN)
	delta := int32(0)
	bias := int32(initialBias)
	total := int32(len(runes))
	for h < total {
		m := maxInt32
		for _, r := range runes {
			if int32(r) >= n && int32(r) < m {
				m = int32(r)
			}
		}
		if m-n > (maxInt32-delta)/(h+1) {
			return "", ErrOverflow
		}
		delta += (m - n) * (h + 1)
		n = m
		for _, r := range runes {
			cp := int32(r)
			if cp < n {
				delta++
				if delta == 0 {
					return "", ErrOverflow
				}
			}
			if cp == n {
				q := delta
				for k := int32(base); ; k += base {
					t := k - bias
					if t < tmin {
						t = tmin
					} else if t > tmax {
						t = tmax
					}
					if q < t {
						break
					}
					out.WriteByte(digitToByte(t + (q-t)%(base-t)))
					q = (q - t) / (base - t)
				}
				out.WriteByte(digitToByte(q))
				bias = adapt(delta, h+1, h == b)
				delta = 0
				h++
			}
		}
		delta++
		n++
	}
	return out.String(), nil
}

// Decode converts a Punycode string back to Unicode (RFC 3492 section 6.2).
// It is a thin wrapper over DecodeAppend, the allocation-free variant the
// zone-ingestion hot path uses.
func Decode(input string) (string, error) {
	output, err := DecodeAppend(nil, input)
	if err != nil {
		return "", err
	}
	return string(output), nil
}

// ByteSeq abstracts the two spellings a DNS label arrives in — an
// immutable string or a reusable line buffer — so the decode hot path is
// compiled once for both without converting (and therefore copying) the
// bytes.
type ByteSeq interface{ ~string | ~[]byte }

// DecodeAppend decodes Punycode input and appends the code points to dst,
// returning the extended slice. Content below len(dst) is never touched.
// When dst has sufficient capacity no allocation occurs, which is what
// lets a zone feeder decode millions of ACE labels with zero steady-state
// allocations; Decode is differential-tested against it.
//
//shamlint:noalloc
func DecodeAppend[S ByteSeq](dst []rune, input S) ([]rune, error) {
	return decodeAppend(dst, input, false, nil)
}

// decodeAppend is DecodeAppend with ToUnicodeLabelAppend's fold and
// keep predicate. With fold set, every code point is folded as it is
// written: a basic one takes the A–Z shift as it is copied, and an
// inserted (non-basic) one is folded and offered to keep before it is
// inserted, the first one keep rejects ending the decode with
// ErrRejected. A nil keep accepts everything; keep is consulted only
// when folding.
func decodeAppend[S ByteSeq](dst []rune, input S, fold bool, keep func(rune) bool) ([]rune, error) {
	floor := len(dst)
	// One pass rejects non-basic input and finds the last delimiter.
	pos := 0
	for i := 0; i < len(input); i++ {
		if c := input[i]; c >= 0x80 {
			return dst, errNonBasic
		} else if c == delimiter {
			pos = i + 1
		}
	}
	for j := 0; j < pos-1; j++ {
		c := rune(input[j])
		if fold && c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	n := int32(initialN)
	i := int32(0)
	bias := int32(initialBias)
	for pos < len(input) {
		oldi := i
		w := int32(1)
		for k := int32(base); ; k += base {
			if pos >= len(input) {
				return dst[:floor], errTruncated
			}
			digit := byteToDigit(input[pos])
			pos++
			if digit < 0 {
				return dst[:floor], errBadDigit
			}
			// RFC 3492 checks overflow by dividing; multiplying in
			// int64 gives the same verdict without a division, as
			// i, w ≤ maxInt32 and digit, base-t ≤ 35.
			if int64(i)+int64(digit)*int64(w) > int64(maxInt32) {
				return dst[:floor], ErrOverflow
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
			if int64(w)*int64(base-t) > int64(maxInt32) {
				return dst[:floor], ErrOverflow
			}
			w *= base - t
		}
		outLen := int32(len(dst)-floor) + 1
		bias = adapt(i-oldi, outLen, oldi == 0)
		q := i / outLen
		if q > maxInt32-n {
			return dst[:floor], ErrOverflow
		}
		n += q
		i -= q * outLen
		if n > utf8.MaxRune || (n >= 0xD800 && n <= 0xDFFF) {
			return dst[:floor], errOutOfRange
		}
		r := rune(n)
		if fold {
			r = Fold(r)
			if keep != nil && !keep(r) {
				return dst[:floor], ErrRejected
			}
		}
		dst = append(dst, 0)
		at := floor + int(i)
		copy(dst[at+1:], dst[at:])
		dst[at] = r
		i++
	}
	return dst, nil
}
