// Package browserpolicy models the IDN display algorithms modern
// browsers adopted after the April 2017 disclosure (paper Section 2.2):
// when a label mixes scripts outside a small set of legitimate
// combinations, the address bar shows Punycode instead of Unicode, and
// a whole-script-confusable check catches single-script lookalikes
// such as the all-Cyrillic "аррӏе". The model exists to measure the
// paper's motivating claim: these defenses still display many IDN
// homographs — diacritic variants and non-Latin homographs — in
// Unicode form, which is exactly the population ShamFinder detects.
package browserpolicy

import (
	"unicode"

	"repro/internal/confusables"
)

// Display is the address-bar rendering decision.
type Display uint8

// Decisions.
const (
	// DisplayUnicode shows the decoded IDN — the user sees the
	// lookalike glyphs.
	DisplayUnicode Display = iota
	// DisplayPunycode shows the raw xn-- form.
	DisplayPunycode
)

// String names the decision.
func (d Display) String() string {
	if d == DisplayPunycode {
		return "punycode"
	}
	return "unicode"
}

// Reason explains a decision.
type Reason string

// Reasons.
const (
	ReasonASCII         Reason = "all-ASCII"
	ReasonSingleScript  Reason = "single script"
	ReasonAllowedMix    Reason = "allowed script combination"
	ReasonDisallowedMix Reason = "disallowed script mixing"
	ReasonWholeScript   Reason = "whole-script confusable"
	ReasonInvisible     Reason = "invisible or combining-only"
)

// script buckets relevant to the mixing rules.
type script uint8

const (
	scLatin script = iota
	scCyrillic
	scGreek
	scHan
	scKana
	scHangul
	scBopomofo
	scOther
	scCommon // digits, hyphen, marks
)

func scriptOf(r rune) script {
	switch {
	case r == '-' || (r >= '0' && r <= '9'):
		return scCommon
	case r < 0x80:
		return scLatin
	case unicode.Is(unicode.Latin, r):
		return scLatin
	case unicode.Is(unicode.Cyrillic, r):
		return scCyrillic
	case unicode.Is(unicode.Greek, r):
		return scGreek
	case unicode.Is(unicode.Han, r):
		return scHan
	case unicode.Is(unicode.Hiragana, r) || unicode.Is(unicode.Katakana, r):
		return scKana
	case unicode.Is(unicode.Hangul, r):
		return scHangul
	case unicode.Is(unicode.Bopomofo, r):
		return scBopomofo
	case unicode.Is(unicode.Mn, r) || unicode.Is(unicode.Me, r):
		return scCommon
	default:
		return scOther
	}
}

// allowedMixes are the "highly restrictive" profile's legitimate
// combinations (Mozilla's IDN display algorithm; Chrome is similar):
// Han with Japanese kana, Han with Hangul, Han with Bopomofo — each
// optionally with Latin.
var allowedMixes = []map[script]bool{
	{scLatin: true, scHan: true, scKana: true},
	{scLatin: true, scHan: true, scHangul: true},
	{scLatin: true, scHan: true, scBopomofo: true},
}

// Policy is a configured display algorithm.
type Policy struct {
	// UC is the confusables database backing the whole-script check.
	// Nil disables that check (pre-2017 behaviour).
	UC *confusables.DB
}

// Decide returns the rendering for one Unicode label.
func (p *Policy) Decide(label string) (Display, Reason) {
	seen := map[script]bool{}
	ascii := true
	letters := 0
	for _, r := range label {
		if r >= 0x80 {
			ascii = false
		}
		s := scriptOf(r)
		if s == scCommon {
			continue
		}
		letters++
		seen[s] = true
	}
	if ascii {
		return DisplayUnicode, ReasonASCII
	}
	if letters == 0 {
		return DisplayPunycode, ReasonInvisible
	}
	if len(seen) == 1 {
		for s := range seen {
			if s != scLatin && p.wholeScriptConfusable(label) {
				_ = s
				return DisplayPunycode, ReasonWholeScript
			}
		}
		return DisplayUnicode, ReasonSingleScript
	}
	for _, mix := range allowedMixes {
		ok := true
		for s := range seen {
			if !mix[s] {
				ok = false
				break
			}
		}
		if ok {
			return DisplayUnicode, ReasonAllowedMix
		}
	}
	return DisplayPunycode, ReasonDisallowedMix
}

// wholeScriptConfusable reports whether every letter of a single-script
// non-Latin label maps to a Latin prototype in the UC database — the
// "аррӏе.com" class Chrome punycodes. A letter qualifies when its full
// prototype differs from the letter and is all ASCII.
func (p *Policy) wholeScriptConfusable(label string) bool {
	if p.UC == nil {
		return false
	}
	var buf [8]rune
	for _, r := range label {
		if scriptOf(r) == scCommon {
			continue
		}
		proto := p.UC.SkeletonAppend(buf[:0], r)
		if len(proto) == 1 && proto[0] == r {
			return false
		}
		for _, pr := range proto {
			if pr >= 0x80 {
				return false
			}
		}
	}
	return true
}

// Evaluate tallies decisions over a set of Unicode labels.
type Tally struct {
	Unicode  int
	Punycode int
	ByReason map[Reason]int
}

// Evaluate applies the policy to every label.
func (p *Policy) Evaluate(labels []string) Tally {
	t := Tally{ByReason: make(map[Reason]int)}
	for _, l := range labels {
		d, r := p.Decide(l)
		if d == DisplayUnicode {
			t.Unicode++
		} else {
			t.Punycode++
		}
		t.ByReason[r]++
	}
	return t
}
