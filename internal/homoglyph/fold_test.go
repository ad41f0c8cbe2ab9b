package homoglyph

import (
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestFoldRowsOncePerView: a view computes its rows once, views with
// the database's own mask share them, and a view with another mask has
// its own. Concurrent first calls agree on one result.
func TestFoldRowsOncePerView(t *testing.T) {
	uc, sim := testComponents()
	db := New(uc, sim, 0)
	var wg sync.WaitGroup
	got := make([]*FoldRows, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = db.FoldRows()
		}()
	}
	wg.Wait()
	for _, rows := range got {
		if rows != got[0] {
			t.Fatal("concurrent first calls computed the rows twice")
		}
	}
	if db.WithSources(db.Use()).FoldRows() != got[0] {
		t.Error("a view with the database's mask does not share its rows")
	}
	uv := db.WithSources(SourceUC)
	if uv.FoldRows() == got[0] || uv.FoldRows() != uv.FoldRows() {
		t.Error("the UC view does not hold rows of its own")
	}
	if !reflect.DeepEqual(got[0], db.computeFoldRows()) {
		t.Error("the shared rows differ from a fresh computation")
	}
}

// TestFoldRowsSnapshotRoundTrip: a loaded database answers with the
// rows it was saved with and computes none; a snapshot without rows
// leaves them to be computed; and Snapshot copies the rows, so editing
// a snapshot leaves the database alone.
func TestFoldRowsSnapshotRoundTrip(t *testing.T) {
	db := fastFontDB(t)
	for _, use := range []Source{SourceUC, SourceSimChar, SourceUC | SourceSimChar} {
		view := db.WithSources(use)
		s := view.Snapshot()
		loaded, err := FromSnapshot(s, view.UC(), view.SimChar())
		if err != nil {
			t.Fatal(err)
		}
		if loaded.FoldRows() != s.Rows {
			t.Errorf("%v: the loaded view does not answer with the stored rows", use)
		}
		if !reflect.DeepEqual(loaded.FoldRows(), view.FoldRows()) {
			t.Errorf("%v: loaded rows differ from the view's", use)
		}
		s = view.Snapshot()
		s.Rows = nil
		bare, err := FromSnapshot(s, view.UC(), view.SimChar())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare.FoldRows(), view.FoldRows()) {
			t.Errorf("%v: rows computed after a load differ from the view's", use)
		}
	}
	s := db.Snapshot()
	s.Rows.Reps[0]++
	if db.FoldRows().Reps[0] == s.Rows.Reps[0] {
		t.Fatal("editing a snapshot's rows edited the database's")
	}
}

// TestFoldRowsSnapshotValidation: fold rows a snapshot carries must be
// framed as a view computes them, or the database does not load.
func TestFoldRowsSnapshotValidation(t *testing.T) {
	db := fastFontDB(t)
	if rows := db.FoldRows(); len(rows.RepRunes) < 2 || len(rows.SeqRunes) < 2 {
		t.Fatalf("want two rows of each table, got %d reps, %d seqs", len(rows.RepRunes), len(rows.SeqRunes))
	}
	if _, err := FromSnapshot(db.Snapshot(), db.UC(), db.SimChar()); err != nil {
		t.Fatalf("unedited snapshot rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(x *FoldRows)
	}{
		{"truncated rep table", func(x *FoldRows) { x.Reps = x.Reps[:len(x.Reps)-1] }},
		{"truncated seq lengths", func(x *FoldRows) { x.SeqLens = x.SeqLens[:len(x.SeqLens)-1] }},
		{"single-rune skeleton sequence", func(x *FoldRows) { // framing kept
			x.SeqLens[0], x.SeqLens[1] = 1, x.SeqLens[1]+x.SeqLens[0]-1
		}},
		{"negative sequence length", func(x *FoldRows) { x.SeqLens[0] = -1 }},
		{"seq past the sequences", func(x *FoldRows) { x.Seqs = x.Seqs[:len(x.Seqs)-1] }},
		{"trailing seq rune", func(x *FoldRows) { x.Seqs = append(x.Seqs, 'x') }},
		{"descending rep runes", func(x *FoldRows) {
			x.RepRunes[0], x.RepRunes[1] = x.RepRunes[1], x.RepRunes[0]
			x.Reps[0], x.Reps[1] = x.Reps[1], x.Reps[0]
		}},
		{"repeated seq rune", func(x *FoldRows) { x.SeqRunes[1] = x.SeqRunes[0] }},
	} {
		s := db.Snapshot()
		tc.mutate(s.Rows)
		if _, err := FromSnapshot(s, db.UC(), db.SimChar()); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestFoldRowsAll: All walks the rep and seq rows as one ascending
// sequence, a rune in both yielding its sequence.
func TestFoldRowsAll(t *testing.T) {
	x := &FoldRows{
		RepRunes: []rune{'b', 'd', 'f'},
		Reps:     []rune{'a', 'c', 'e'},
		SeqRunes: []rune{'d', 'g'},
		SeqLens:  []int32{2, 3},
		Seqs:     []rune("xyuvw"),
	}
	var got []string
	for r, skel := range x.All() {
		got = append(got, string(r)+"→"+string(skel))
	}
	if want := []string{"b→a", "d→xy", "f→e", "g→uvw"}; !slices.Equal(got, want) {
		t.Fatalf("All = %v, want %v", got, want)
	}
}

// BenchmarkFoldRows computes the fold rows of the fast-font union view:
// the union-find and the expansion, which a view runs once and a
// snapshot-loaded database never runs. A detector compile no longer
// pays for them, so this is where their cost stays measured.
func BenchmarkFoldRows(b *testing.B) {
	db := fastFontDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.computeFoldRows().RepRunes) == 0 {
			b.Fatal("no rows")
		}
	}
}
