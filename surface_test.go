package shamfinder

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestDetectSurface pins the exported detection methods: one per input
// shape on the detectors — a sorted batch, one name as a string, one
// name as a reused buffer, and the lines of a domain list or zone
// file — plus the seed linear oracle in core, and none on the engines,
// whose callers take the detector once per query (Engine.Current or
// Engine.Detector).
func TestDetectSurface(t *testing.T) {
	detectMethods := func(v any) []string {
		var names []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			// Detector is the engines' accessor, not a detect method.
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Detect") && name != "Detector" {
				names = append(names, name)
			}
		}
		return names
	}
	facade := []string{"Detect", "DetectDomainBackend", "DetectDomainBytesBackend", "DetectLines"}
	for _, c := range []struct {
		typ  string
		v    any
		want []string
	}{
		{"core.Detector", (*core.Detector)(nil), append(slices.Clone(facade), "DetectLabelLinear")},
		{"core.Engine", (*core.Engine)(nil), nil},
		{"Detector", (*Detector)(nil), facade},
		{"Engine", (*Engine)(nil), nil},
	} {
		got := detectMethods(c.v)
		slices.Sort(c.want)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s detect methods = %v, want %v", c.typ, got, c.want)
		}
	}
}
