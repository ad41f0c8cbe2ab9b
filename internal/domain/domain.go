// Package domain models DNS domain names as structured multi-label
// objects — the representation the measurement pipeline needs to see
// zones beyond .com. The paper scans .com, .net and ~1,500 new-gTLD
// zone files; treating a zone line as "label with a .com suffix glued
// on" (the seed's approach) makes every other zone invisible. This
// package provides:
//
//   - zero-allocation splitting of a domain name into label spans,
//     generic over string | []byte like internal/punycode, tolerant of
//     the trailing root dot zone files carry;
//   - a small embedded multi-label public-suffix table (the
//     "co.uk"-style cut rule), so the registrable label — the label a
//     homograph attack substitutes into — is extracted correctly for
//     arbitrary TLDs, including ACE/IDN TLDs such as xn--p1ai;
//   - RegistrableSpan, the load-time cut of the registrable label,
//     taken from the end of the name without a span list, and string
//     conveniences (Labels, Suffix, Registrable) for load-time call
//     sites such as reference-list parsing.
//
// The detection hot path (core's fused per-line walk) tracks label
// boundaries itself and consults only TwoLabelSuffix, on the match
// path — allocation-free by construction. Reference lists (reflist)
// and rankings cut their labels with RegistrableSpan, through
// Registrable or directly. AppendSpans and SuffixLabels define the
// same cut over a full span list and remain as its test reference;
// changing suffix semantics means changing TwoLabelSuffix (or the
// table), which every path shares.
package domain

import "repro/internal/punycode"

// Span marks one label's [Start, End) byte range within a domain name.
type Span struct {
	Start, End int
}

// AppendSpans appends the label spans of name to dst, returning the
// extended slice. Labels are the dot-separated runs of bytes; one
// trailing root dot (as zone files write, "example.com.") contributes
// no final empty label. Interior empty labels ("a..b") are preserved
// as empty spans so callers see the malformed shape instead of a
// silently repaired name. With pre-grown dst capacity the call
// allocates nothing.
//
//shamlint:noalloc
func AppendSpans[S punycode.ByteSeq](dst []Span, name S) []Span {
	if len(name) == 0 {
		return dst
	}
	base := len(dst)
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			if i == len(name) && start == i && len(dst) > base {
				break // trailing root dot: no final empty label
			}
			dst = append(dst, Span{Start: start, End: i})
			start = i + 1
		}
	}
	return dst
}

// SuffixLabels reports how many trailing labels of name form its public
// suffix: 0 for a single-label name, 2 when the last two labels are a
// known multi-label suffix ("co.uk"), 1 otherwise. The suffix never
// swallows the whole name — a two-label name keeps one registrable
// label even when it spells a multi-label suffix — so the registrable
// label at index len(spans)-SuffixLabels(...)-1 always exists. spans
// must be the AppendSpans decomposition of name.
func SuffixLabels[S punycode.ByteSeq](name S, spans []Span) int {
	if len(spans) < 2 {
		return 0
	}
	if len(spans) >= 3 && TwoLabelSuffix(name, spans[len(spans)-2], spans[len(spans)-1]) {
		return 2
	}
	return 1
}

// Labels splits a domain name into its labels (root dot dropped).
func Labels(name string) []string {
	spans := AppendSpans(nil, name)
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = name[sp.Start:sp.End]
	}
	return out
}

// Suffix returns the public suffix of name ("com", "co.uk",
// "xn--p1ai"), or "" for a single-label name.
func Suffix(name string) string {
	_, suffix := Registrable(name)
	return suffix
}

// Registrable returns the registrable label of name — the label
// immediately left of the public suffix, the unit Algorithm 1 matches
// against a reference — together with that suffix. A bare label
// returns (label, ""); an empty or dot-only name returns ("", "").
//
//	Registrable("amazon.co.uk")      = "amazon", "co.uk"
//	Registrable("www.xn--ggle-55da.com") = "xn--ggle-55da", "com"
//	Registrable("xn--80ak6aa92e.xn--p1ai") = "xn--80ak6aa92e", "xn--p1ai"
//	Registrable("google")            = "google", ""
func Registrable(name string) (label, suffix string) {
	sp, end := RegistrableSpan(name)
	if sp.End < end {
		suffix = name[sp.End+1 : end]
	}
	return name[sp.Start:sp.End], suffix
}

// RegistrableSpan returns the span of name's registrable label, the
// label Registrable returns, and where the name ends without its root
// dot; the suffix lies between the two. It is the cut AppendSpans and
// SuffixLabels define, taken from the end of the name without a span
// list, so it allocates nothing.
//
//shamlint:noalloc
func RegistrableSpan[S punycode.ByteSeq](name S) (label Span, end int) {
	end = len(name)
	if end > 0 && name[end-1] == '.' {
		end-- // the root dot; "." is one empty label
	}
	d1 := lastDot(name, end)
	if d1 < 0 {
		return Span{Start: 0, End: end}, end
	}
	d2 := lastDot(name, d1)
	if d2 < 0 {
		return Span{Start: 0, End: d1}, end
	}
	if !TwoLabelSuffix(name, Span{Start: d2 + 1, End: d1}, Span{Start: d1 + 1, End: end}) {
		return Span{Start: d2 + 1, End: d1}, end
	}
	return Span{Start: lastDot(name, d2) + 1, End: d2}, end
}

// lastDot returns the index of the last '.' of name[:end], or -1.
func lastDot[S punycode.ByteSeq](name S, end int) int {
	for i := end - 1; i >= 0; i-- {
		if name[i] == '.' {
			return i
		}
	}
	return -1
}
