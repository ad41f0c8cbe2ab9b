package core

import "fmt"

// Backend selects which answer a query returns. Both backends come from
// one TR39 skeleton probe and see different attack classes:
// BackendPostings is Algorithm 1 — the candidates of the label's own
// rune length that pass the pairwise, character-by-character check — so
// it proves exactly which characters were substituted but can only
// represent same-length, rune-for-rune substitutions; BackendSkeleton
// returns every candidate sharing the label's whole-label prototype,
// catching many-to-one and length-changing confusions ("rn"→"m",
// "vv"→"w") the pairwise model provably cannot. BackendBoth unions the
// two, tagging each match with the backend(s) that found it.
type Backend uint8

const (
	// BackendPostings returns Algorithm 1's pairwise-verified,
	// same-length matches, with their character diffs.
	BackendPostings Backend = 1 << iota
	// BackendSkeleton returns every reference sharing the label's TR39
	// skeleton.
	BackendSkeleton
	// BackendBoth runs both backends and unions their matches.
	BackendBoth = BackendPostings | BackendSkeleton
)

// String names the backend the way the CLI flag and wire field spell it.
func (b Backend) String() string {
	switch b {
	case BackendPostings:
		return "postings"
	case BackendSkeleton:
		return "skeleton"
	case BackendBoth:
		return "both"
	default:
		return "none"
	}
}

// ParseBackend parses the CLI/wire spelling. The empty string selects
// BackendPostings — the pre-existing behavior of every caller that does
// not ask for a backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "postings":
		return BackendPostings, nil
	case "skeleton":
		return BackendSkeleton, nil
	case "both":
		return BackendBoth, nil
	default:
		return 0, fmt.Errorf(`core: unknown backend %q (want "postings", "skeleton", or "both")`, s)
	}
}
