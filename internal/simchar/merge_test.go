package simchar

import (
	"testing"

	"repro/internal/fontgen"
	"repro/internal/ucd"
)

func TestMergeKeepsMinimumDelta(t *testing.T) {
	a := FromPairs([]Pair{{A: 'a', B: 0x100, Delta: 3}, {A: 'b', B: 0x101, Delta: 2}})
	b := FromPairs([]Pair{{A: 'a', B: 0x100, Delta: 1}, {A: 'c', B: 0x102, Delta: 4}})
	m := Merge(a, b)
	if m.NumPairs() != 3 {
		t.Fatalf("merged pairs = %d", m.NumPairs())
	}
	for _, p := range m.Pairs() {
		if p.A == 'a' && p.Delta != 1 {
			t.Errorf("merged delta for a/U+0100 = %d, want min 1", p.Delta)
		}
	}
	if !m.Confusable('b', 0x101) || !m.Confusable('c', 0x102) {
		t.Error("merge lost pairs")
	}
}

func TestMergeNilAndEmpty(t *testing.T) {
	a := FromPairs([]Pair{{A: 'a', B: 0x100, Delta: 0}})
	m := Merge(nil, a, FromPairs(nil))
	if m.NumPairs() != 1 {
		t.Errorf("pairs = %d", m.NumPairs())
	}
	if Merge().NumPairs() != 0 {
		t.Error("empty merge not empty")
	}
}

func TestMergeDeterministicOrder(t *testing.T) {
	a := FromPairs([]Pair{{A: 'z', B: 0x200, Delta: 1}, {A: 'a', B: 0x100, Delta: 1}})
	b := FromPairs([]Pair{{A: 'm', B: 0x150, Delta: 1}})
	m1 := Merge(a, b)
	m2 := Merge(b, a)
	p1, p2 := m1.Pairs(), m2.Pairs()
	if len(p1) != len(p2) {
		t.Fatal("merge order changed pair count")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("merge not order-independent: %v vs %v", p1[i], p2[i])
		}
	}
}

func TestDiff(t *testing.T) {
	a := FromPairs([]Pair{{A: 'a', B: 0x100, Delta: 1}, {A: 'b', B: 0x101, Delta: 1}})
	b := FromPairs([]Pair{{A: 'a', B: 0x100, Delta: 3}})
	d := Diff(a, b)
	if len(d) != 1 || d[0].A != 'b' {
		t.Errorf("Diff = %v", d)
	}
	if got := Diff(b, a); len(got) != 0 {
		t.Errorf("reverse Diff = %v", got)
	}
}

// TestMultiFontUnionGrowsCoverage is the Section 7.1 experiment in
// miniature: SimChar over two font styles finds pairs neither style
// finds alone, while the curated (style-invariant) pairs survive in
// both.
func TestMultiFontUnionGrowsCoverage(t *testing.T) {
	idna := ucd.IDNASet()
	fontA := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true})
	fontB := fontgen.Generate(fontgen.Options{SkipCJK: true, SkipHangul: true, StyleSeed: 99})
	dbA, _ := Build(fontA, idna, Options{})
	dbB, _ := Build(fontB, idna, Options{})
	union := Merge(dbA, dbB)

	if union.NumPairs() < dbA.NumPairs() || union.NumPairs() < dbB.NumPairs() {
		t.Fatalf("union %d smaller than a component (%d, %d)",
			union.NumPairs(), dbA.NumPairs(), dbB.NumPairs())
	}
	// The styles must actually differ: each font contributes pairs
	// the other lacks.
	if len(Diff(dbA, dbB)) == 0 || len(Diff(dbB, dbA)) == 0 {
		t.Error("font styles produced identical databases")
	}
	// Style-invariant curated twins survive in both: ı (dotless i)
	// remains near i regardless of style.
	if !dbA.Confusable('i', 0x0131) || !dbB.Confusable('i', 0x0131) {
		t.Error("curated variant lost under a style change")
	}
}
