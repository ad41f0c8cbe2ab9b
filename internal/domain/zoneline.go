package domain

import (
	"bytes"
	"encoding/binary"

	"repro/internal/punycode"
)

// NormalizeZoneLine prepares one domain-list line (or one incoming
// query FQDN — the HTTP serving layer routes through the same rules,
// so `serve` and `detect` can never disagree on normalization) for
// detection, in place and without allocating: ASCII whitespace is
// trimmed, one trailing root dot is dropped, and ASCII letters are
// lowercased. The whole FQDN is kept — any TLD, any label count — for
// the domain-aware detectors to split.
//
// It reports false for blank lines and lines with no scannable
// homograph candidate: a candidate is an ACE label left of the final
// dot, a bare ACE label, or any non-ASCII byte. Three checks decide, in
// order:
//
//  1. mayHoldCandidate on the raw, untrimmed line: a line with no byte
//     >= 0x80 and no "--" is rejected untouched. That is almost every
//     line of a zone whose TLD is not ACE. Running it before the trim is
//     exact: the trim removes only ASCII whitespace and one '.', neither
//     of which is a byte >= 0x80 or a '-', so the trimmed line holds a
//     high byte or "--" exactly when the raw line does. Its fast path,
//     three overlapping word loads for lines of 8 to 22 bytes, is
//     written out here so that nearly every zone line pays no call.
//  2. After the trim, mayHoldCandidateLeftOfTLD repeats the "--" test
//     on the part left of the last dot, so that under an ACE TLD
//     (.xn--p1ai) the TLD's own "--" no longer passes every plain line.
//  3. scannableZoneName, the exact early-exit byte loop, settles every
//     line the two word-at-a-time checks pass.
//
// The returned domain aliases line's storage.
//
//shamlint:noalloc
func NormalizeZoneLine(line []byte) ([]byte, bool) {
	if n := len(line); n > 22 {
		if !mayHoldCandidate(line) {
			return nil, false
		}
	} else if n >= 8 && candidateBits(line, 0)|candidateBits(line, (n-8)/2)|candidateBits(line, n-8) == 0 {
		return nil, false
	}
	start, end := 0, len(line)
	for start < end && asciiSpace(line[start]) {
		start++
	}
	for end > start && asciiSpace(line[end-1]) {
		end--
	}
	if end > start && line[end-1] == '.' {
		end-- // zone files write FQDNs with the root dot
	}
	line = line[start:end]
	if len(line) == 0 || !mayHoldCandidateLeftOfTLD(line) || !scannableZoneName(line) {
		return nil, false
	}
	lowerASCII(line)
	return line, true
}

// NormalizeZoneLineAll is NormalizeZoneLine without the ACE/non-ASCII
// candidate gate: every non-blank name is kept. The skeleton detection
// backend compares whole-label prototypes, so a pure-ASCII name like
// "rnicrosoft.com" is a live candidate there — feeders select this
// variant whenever the chosen backend includes the skeleton index, and
// keep the gated NormalizeZoneLine for postings-only runs where the
// early reject saves the pooled-buffer copy and worker handoff.
//
//shamlint:noalloc
func NormalizeZoneLineAll(line []byte) ([]byte, bool) {
	start, end := 0, len(line)
	for start < end && asciiSpace(line[start]) {
		start++
	}
	for end > start && asciiSpace(line[end-1]) {
		end--
	}
	if end > start && line[end-1] == '.' {
		end--
	}
	line = line[start:end]
	if len(line) == 0 {
		return nil, false
	}
	lowerASCII(line)
	return line, true
}

// lowerASCII lowercases the ASCII letters of line in place, a word at a
// time: a word with no byte in 'A'–'Z' is left as it is, and one with
// some has them all shifted at once. Past the last whole word, one load
// at len(line)-8 covers the tail again, which is harmless as lowercasing
// is idempotent. A line under 8 bytes takes the byte loop.
func lowerASCII(line []byte) {
	n := len(line)
	if n < 8 {
		for i, c := range line {
			if c >= 'A' && c <= 'Z' {
				line[i] = c + 'a' - 'A'
			}
		}
		return
	}
	for i := 0; ; i += 8 {
		i = min(i, n-8)
		w := binary.LittleEndian.Uint64(line[i:])
		if up := upperBits(w); up != 0 {
			binary.LittleEndian.PutUint64(line[i:], w|up>>2) // bit 7 → bit 5, 'A' → 'a'
		}
		if i == n-8 {
			return
		}
	}
}

// scannableZoneName is NormalizeZoneLine's gate, one early-exit pass:
// keep on the first non-ASCII byte, or on a dot following an ACE label
// start (the ACE label is then left of the final dot). A lone ACE
// label with nothing after it is kept only when it IS the whole name
// (firstACE == 0) — otherwise it is the name's TLD, which the detector
// never scans. The prefix probe runs on the label tail; "xn--" cannot
// span a dot, so no cross-label false positive exists.
func scannableZoneName(line []byte) bool {
	firstACE := -1
	labelStart := true
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c >= 0x80 {
			return true
		}
		if firstACE >= 0 {
			if c == '.' {
				return true
			}
			continue
		}
		if labelStart && punycode.HasACEPrefix(line[i:]) {
			firstACE = i
		}
		labelStart = c == '.'
	}
	return firstACE == 0
}

const (
	swarOnes   = 0x0101010101010101
	swarHigh   = 0x8080808080808080
	swarHyphen = 0x2d2d2d2d2d2d2d2d
	swarUpperA = 0x4141414141414141 // 'A'
	swarPastZ  = 0x5b5b5b5b5b5b5b5b // '[', the byte after 'Z'
)

// upperBits sets bit 7 of each byte of w in 'A'–'Z' and clears the
// rest. It is the SWAR range test: with bit 7 of every byte set first,
// no byte of w|0x80…80 borrows from its neighbour when 'A' or '[' is
// subtracted, so bit 7 of each difference says whether the byte's low
// seven bits reach that bound. Masking by ^w drops the bytes >= 0x80,
// whose low seven bits may look like a letter (0xC1 reads as 'A').
func upperBits(w uint64) uint64 {
	t := w | swarHigh
	return (t - swarUpperA) &^ (t - swarPastZ) &^ w & swarHigh
}

// mayHoldCandidate is the word-at-a-time pre-check in front of
// scannableZoneName. It reports whether line has a byte >= 0x80 or two
// adjacent '-' bytes; a line with neither cannot pass the exact gate, so
// false is a final reject. That is exact, not a heuristic: the gate
// keeps only non-ASCII bytes and ACE labels, and every ACE prefix
// ("xn--" in any case) contains "--". RFC 5891's R-LDH rule reserves
// "--" at positions 3–4 for A-labels, so the pair is rare beyond the
// ACE labels themselves. True may be a false positive (an ACE TLD, a
// non-ACE "a--b", or the "-," noted at hyphenPairs); the later checks
// settle it. Lines shorter than 8 bytes pass: they are too short for a
// word load, and the exact gate decides them.
//
// The line is read as overlapping little-endian words, and consecutive
// loads share at least one byte, so every adjacent byte pair lies
// inside one load and no flag is carried from word to word. A line of
// 8 to 22 bytes, nearly every line of a zone, takes three loads at 0,
// (n-8)/2 and n-8: the middle one starts at most 7 bytes after the
// first and ends at most 7 bytes before the last, so they overlap. That
// offset needs no branch, where min(7, n-8) compiles to one that line
// lengths spread evenly over 9–20 bytes mispredict. Longer lines take
// loads at 0, 7, 14, ... while a whole word fits, then one at n-8.
// NormalizeZoneLine writes the three-load case out inline with the
// unmasked candidateBits. That is the same test: with end = n, the
// masks of candidatesBefore drop only the pair bit of the top byte of
// the load at n-8, which hyphenPairs never sets (its shift brings in
// zeros).
func mayHoldCandidate(line []byte) bool {
	return len(line) < 8 || candidatesBefore(line, len(line)) != 0
}

// mayHoldCandidateLeftOfTLD is mayHoldCandidate for a trimmed name with
// the "--" test confined to the part left of its last dot. The exact
// gate scans the final label only when the name has no dot, so a "--"
// there (an ACE TLD such as .xn--p1ai) cannot make a dotted name
// scannable; a byte >= 0x80 still counts anywhere, since the gate keeps
// it in any position. A dotless name, or one under 8 bytes, passes.
func mayHoldCandidateLeftOfTLD(line []byte) bool {
	d := bytes.LastIndexByte(line, '.')
	return len(line) < 8 || d < 0 || candidatesBefore(line, d) != 0
}

// candidateBits loads the word at line[i:] and sets the high bit of each
// of its bytes that is >= 0x80 or starts a "--" pair.
func candidateBits(line []byte, i int) uint64 {
	w := binary.LittleEndian.Uint64(line[i:])
	return (w | hyphenPairs(w)) & swarHigh
}

// candidatesBefore is candidateBits over a whole line of n >= 8 bytes,
// read in mayHoldCandidate's overlapping loads, keeping a "--" pair
// only when it ends before byte end; a byte >= 0x80 counts anywhere.
func candidatesBefore(line []byte, end int) uint64 {
	n := len(line)
	if n <= 22 {
		return candidateBitsBefore(line, 0, end) | candidateBitsBefore(line, (n-8)/2, end) | candidateBitsBefore(line, n-8, end)
	}
	hit := candidateBitsBefore(line, n-8, end)
	for i := 0; i+8 <= n; i += 7 {
		hit |= candidateBitsBefore(line, i, end)
	}
	return hit
}

// candidateBitsBefore is candidateBits with the pairs that do not end
// before byte end masked off. The pair starting at byte i+j ends at
// i+j+1 <= end-1, so the load at i keeps the pair bits of its low
// end-1-i bytes. A shift of 64 or more is 0 in Go, so the mask is all
// ones once end-1-i >= 8.
func candidateBitsBefore(line []byte, i, end int) uint64 {
	w := binary.LittleEndian.Uint64(line[i:])
	return (w | hyphenPairs(w)&(1<<(8*max(end-1-i, 0))-1)) & swarHigh
}

// hyphenPairs sets bit 7 of byte j of w when bytes j and j+1 are both
// '-'; its other bits are noise for the caller to mask off with
// swarHigh. It is the SWAR zero-byte test on w ^ 0x2d…2d, unmasked, ANDed
// with itself shifted one byte, so bit 15 of byte j lands on bit 7. The
// test's borrow can also flag a ',' (0x2c) just above a '-', so "-,"
// passes as a pair too; that only sends the line on to the exact gate.
func hyphenPairs(w uint64) uint64 {
	x := w ^ swarHyphen
	y := (x - swarOnes) &^ x
	return y & (y >> 8)
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v'
}
