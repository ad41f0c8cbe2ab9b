package punycode

import (
	"testing"

	"repro/internal/lint"
)

// TestNoallocGate is the dynamic half of the //shamlint:noalloc
// contract: the exercise table below must cover exactly the annotated
// functions in this package (drift fails the test even under -race),
// and each steady-state path must measure zero allocations.
func TestNoallocGate(t *testing.T) {
	runeBuf := make([]rune, 0, 64)
	ace := []byte("ggle-55da")
	full := []byte("xn--ggle-55da")
	// A raw label past the 32 bytes a string conversion may hold on
	// the stack.
	longRaw := []byte("gооgle-gооgle-gооgle-gооgle-gооgle")
	idn := "www.xn--ggle-55da.com"
	idnBytes := []byte(idn)
	// A keep predicate that rejects the first inserted code point.
	reject := func(rune) bool { return false }
	var foldSink rune
	var boolSink bool

	lint.CheckNoallocCoverage(t, ".", map[string]func(){
		"DecodeAppend": func() {
			runeBuf, _ = DecodeAppend(runeBuf[:0], ace)
		},
		"ToUnicodeLabelAppend": func() {
			runeBuf, _ = ToUnicodeLabelAppend(runeBuf[:0], full, nil)
			runeBuf, _ = ToUnicodeLabelAppend(runeBuf[:0], longRaw, nil)
			if _, err := ToUnicodeLabelAppend(runeBuf[:0], full, reject); err != ErrRejected {
				panic("keep did not reject")
			}
		},
		"Fold": func() {
			foldSink = Fold('Ä')
		},
		"IsIDN": func() {
			boolSink = IsIDN(idn)
		},
		"IsIDNBytes": func() {
			boolSink = IsIDNBytes(idnBytes)
		},
	})
	_, _ = foldSink, boolSink
}
