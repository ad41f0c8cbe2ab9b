package domain

import (
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
// dot, a bare ACE label, or any non-ASCII byte. The position test
// matters in IDN-TLD zones (.xn--p1ai), where the TLD would otherwise
// qualify every plain line: those reject here, before the pooled-buffer
// copy and worker handoff, but only after the byte loop. A line with no
// "--" and no non-ASCII byte — almost every line of a zone whose TLD is
// not ACE — rejects sooner, after a word-at-a-time scan
// (mayHoldCandidate) that reads 8 bytes per load. The returned domain
// aliases line's storage.
//
//shamlint:noalloc
func NormalizeZoneLine(line []byte) ([]byte, bool) {
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
	if len(line) == 0 || !mayHoldCandidate(line) || !scannableZoneName(line) {
		return nil, false
	}
	for i, c := range line {
		if c >= 'A' && c <= 'Z' {
			line[i] = c + 'a' - 'A'
		}
	}
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
	for i, c := range line {
		if c >= 'A' && c <= 'Z' {
			line[i] = c + 'a' - 'A'
		}
	}
	return line, true
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
)

// mayHoldCandidate is the word-at-a-time pre-check in front of
// scannableZoneName. It reports whether line has a byte >= 0x80 or two
// adjacent '-' bytes; a line with neither cannot pass the exact gate, so
// false is a final reject. That is exact, not a heuristic: the gate
// keeps only non-ASCII bytes and ACE labels, and every ACE prefix
// ("xn--" in any case) contains "--". RFC 5891's R-LDH rule reserves
// "--" at positions 3–4 for A-labels, so the pair is rare beyond the
// ACE labels themselves. An ACE TLD is one of them: under .xn--p1ai
// every line passes, and this scan only adds its cost. True may be a
// false positive (such a TLD, a non-ACE "a--b", or the "-," noted
// below); the exact gate settles it.
//
// Lines of 8 bytes or more are read as little-endian words: the full
// words, then one overlapping load for the tail. The hyphen test is the
// SWAR zero-byte test on w ^ 0x2d…2d, ANDed with itself shifted one
// byte. Its borrow can also flag a ',' (0x2c) just above a '-', which
// only sends "-," on to the exact gate. A pair split across two full
// words is caught by carrying the top byte's flag into the next word.
// The tail load overlaps the last full word, so it holds the pair that
// straddles their boundary and needs no carry.
func mayHoldCandidate(line []byte) bool {
	n := len(line)
	if n < 8 {
		return true // too short for a word load: the exact gate decides
	}
	var hit, carry uint64
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(line[i:])
		z := hyphenBytes(w)
		hit |= w&swarHigh | z&(z>>8) | z&(carry<<7)
		carry = z >> 63
	}
	if i < n {
		w := binary.LittleEndian.Uint64(line[n-8:])
		z := hyphenBytes(w)
		hit |= w&swarHigh | z&(z>>8)
	}
	return hit != 0
}

// hyphenBytes sets the high bit of every byte of w that is '-' (and of
// a ',' just above one; see mayHoldCandidate).
func hyphenBytes(w uint64) uint64 {
	x := w ^ swarHyphen
	return (x - swarOnes) &^ x & swarHigh
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v'
}
