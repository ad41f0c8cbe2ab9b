package domain

import (
	"bytes"
	"slices"
	"testing"
)

// TestMayHoldCandidateExact pins both word-at-a-time pre-checks to their
// byte-level rules. Each probe sits at every offset of lines 0 to 48
// bytes long, on a dot-free and a dotted background. A pre-check must
// be true whenever its rule holds (a byte >= 0x80 anywhere, or "--";
// for mayHoldCandidateLeftOfTLD, "--" left of the last dot), and may be
// true otherwise only for the SWAR test's "-," or a line too short for
// a word load (or, left of the TLD, a dotless one). The differential
// tests against the naive normalizer cannot see a false positive, since
// the exact gate rejects it anyway; this test does.
func TestMayHoldCandidateExact(t *testing.T) {
	probes := []string{"--", "-,", "\x80", "-", ",-", "---", "xn--", ".--", "--."}
	backgrounds := []func(i int) byte{
		func(int) byte { return 'a' },
		func(i int) byte { return ".ab"[i%3] },
	}
	hyphens, comma := []byte("--"), []byte("-,")
	buf := make([]byte, 48)
	for n := 0; n <= 48; n++ {
		for _, p := range probes {
			for at := 0; at+len(p) <= n; at++ {
				for _, bg := range backgrounds {
					for i := range n {
						buf[i] = bg(i)
					}
					copy(buf[at:], p)
					line := buf[:n]
					high := slices.ContainsFunc(line, func(c byte) bool { return c >= 0x80 })

					rule := high || bytes.Contains(line, hyphens)
					slack := n < 8 || bytes.Contains(line, comma)
					if got := mayHoldCandidate(line); got != rule && (rule || !slack) {
						t.Errorf("mayHoldCandidate(%q) = %v, want %v", line, got, rule)
					}

					left := line
					d := bytes.LastIndexByte(line, '.')
					if d >= 0 {
						left = line[:d]
					}
					rule = high || bytes.Contains(left, hyphens)
					slack = n < 8 || d < 0 || bytes.Contains(left, comma)
					if got := mayHoldCandidateLeftOfTLD(line); got != rule && (rule || !slack) {
						t.Errorf("mayHoldCandidateLeftOfTLD(%q) = %v, want %v", line, got, rule)
					}
				}
			}
		}
	}
}
