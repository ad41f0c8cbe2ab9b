package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// This file is the dynamic twin of the static noalloc analyzer: a
// table-driven AllocsPerRun gate each annotated package runs over its
// own //shamlint:noalloc list. Because the exercise table is checked
// against the annotations in the source, the static and dynamic checks
// cannot drift apart — adding an annotation without an exercise (or
// vice versa) fails that package's tests.

// ScanNoallocDir returns the display names ("DecodeAppend",
// "(*Detector).DetectDomainBytesBackend") of //shamlint:noalloc functions
// declared in the non-test files of one package directory.
func ScanNoallocDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), noallocMarker) {
					names = append(names, FuncDisplayName(fd))
					break
				}
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// CheckNoallocCoverage asserts that exercises covers exactly the
// //shamlint:noalloc annotations in dir (the drift gate, which runs
// even under -race), then measures each exercise with AllocsPerRun and
// fails on any allocation (skipped under -race, whose instrumentation
// allocates). Each exercise must drive the annotated function on its
// steady-state path with pre-grown buffers, the way the hot loop does.
func CheckNoallocCoverage(t testing.TB, dir string, exercises map[string]func()) {
	t.Helper()
	annotated, err := ScanNoallocDir(dir)
	if err != nil {
		t.Fatalf("scanning %s for noalloc annotations: %v", dir, err)
	}
	for _, name := range annotated {
		if _, ok := exercises[name]; !ok {
			t.Errorf("//shamlint:noalloc %s has no AllocsPerRun exercise — add one to this package's gate table", name)
		}
	}
	for name := range exercises {
		found := false
		for _, a := range annotated {
			if a == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("exercise %q has no //shamlint:noalloc annotation in %s — annotate the function or drop the exercise", name, dir)
		}
	}
	if t.Failed() {
		return
	}
	if RaceEnabled {
		t.Logf("race instrumentation allocates; drift gate checked, AllocsPerRun skipped")
		return
	}
	for _, name := range annotated {
		fn := exercises[name]
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("noalloc function %s allocates %.1f/op on its steady-state path", name, n)
		}
	}
}
