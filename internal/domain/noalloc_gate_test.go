package domain

import (
	"testing"

	"repro/internal/lint"
)

// TestNoallocGate keeps this package's //shamlint:noalloc annotations
// and their AllocsPerRun exercises in lockstep: the per-line feeder
// primitives must stay allocation-free with warm scratch.
func TestNoallocGate(t *testing.T) {
	spans := make([]Span, 0, 8)
	name := []byte("www.xn--bcher-kva.co.uk")
	line := []byte("XN--GGLE-55DA.COM")
	buf := make([]byte, 64)

	lint.CheckNoallocCoverage(t, ".", map[string]func(){
		"AppendSpans": func() {
			spans = AppendSpans(spans[:0], name)
		},
		"RegistrableSpan": func() {
			RegistrableSpan(name)
		},
		"NormalizeZoneLine": func() {
			copy(buf, line)
			NormalizeZoneLine(buf[:len(line)])
		},
		"NormalizeZoneLineAll": func() {
			copy(buf, line)
			NormalizeZoneLineAll(buf[:len(line)])
		},
	})
}
