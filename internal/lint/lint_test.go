package lint

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const moduleDir = "../.."

// Each fixture directory exercises one analyzer: a config scoping only
// that rule to the fixture package, positive cases marked with
// `// want <rule> "<message substring>"`, and allowlisted cases that
// must stay silent. The noalloc and directive rules are unscoped.
var fixtures = []struct {
	dir string
	cfg func(pkgPath string) *Config
}{
	{"durablewrite", func(p string) *Config { return &Config{DurableWritePkgs: []string{p}} }},
	{"noalloc", func(p string) *Config { return &Config{} }},
	{"determinism", func(p string) *Config { return &Config{DeterminismPkgs: []string{p}} }},
	{"singleepoch", func(p string) *Config { return &Config{SingleEpochPkgs: []string{p}} }},
	{"closecheck", func(p string) *Config { return &Config{CloseCheckPkgs: []string{p}} }},
	{"goroutinectx", func(p string) *Config { return &Config{GoroutinePkgs: []string{p}} }},
	{"directive", func(p string) *Config { return &Config{} }},
}

// want markers live in fixture comments: `want <rule> "<substr>"`, with
// an optional line offset (`want-1 …`) for diagnostics the marker
// cannot share a line with (e.g. a malformed directive itself).
var wantRe = regexp.MustCompile(`want([+-]\d+)? ([a-z-]+) "([^"]*)"`)

type expectation struct {
	line   int
	rule   string
	substr string
}

func TestFixtureDiagnostics(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			pkgPath := "fixture/" + fx.dir
			pkg, err := LoadDir(moduleDir, filepath.Join("testdata", fx.dir), pkgPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			var wants []expectation
			for _, f := range pkg.Files {
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
							line := pkg.Fset.Position(c.Pos()).Line
							if m[1] != "" {
								off, _ := strconv.Atoi(m[1])
								line += off
							}
							wants = append(wants, expectation{line: line, rule: m[2], substr: m[3]})
						}
					}
				}
			}
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want markers", fx.dir)
			}
			diags := Run([]*Package{pkg}, fx.cfg(pkgPath))

			matched := make([]bool, len(diags))
			for _, w := range wants {
				found := false
				for i, d := range diags {
					if !matched[i] && d.Pos.Line == w.line && d.Rule == w.rule && strings.Contains(d.Message, w.substr) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("expected %s diagnostic at line %d containing %q; not reported", w.rule, w.line, w.substr)
				}
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

// TestRuleSetComplete pins the analyzer roster: the issue's six
// contracts, each with a fixture above.
func TestRuleSetComplete(t *testing.T) {
	want := []string{"durable-write", "noalloc", "determinism", "single-epoch", "close-check", "goroutine-ctx"}
	got := RuleNames()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rule set = %v, want %v", got, want)
	}
}

func TestScanNoallocTree(t *testing.T) {
	keys := map[string]bool{}
	err := filepath.WalkDir(moduleDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != moduleDir && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		names, err := ScanNoallocDir(path)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(moduleDir, path)
		if err != nil {
			return err
		}
		for _, name := range names {
			keys[filepath.ToSlash(pkg)+"."+name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The documented hot-path contracts must stay annotated; losing one
	// silently would disable both the static and dynamic gates for it.
	for _, k := range []string{
		"internal/core.(*Detector).DetectDomainBytesBackend",
		"internal/domain.NormalizeZoneLine",
		"internal/domain.AppendSpans",
		"internal/punycode.DecodeAppend",
		"internal/punycode.ToUnicodeLabelAppend",
		"internal/punycode.IsIDN",
		"internal/punycode.IsIDNBytes",
		"internal/punycode.Fold",
		"internal/zonewatch.firstField",
		"internal/zonewatch.writeDeltaLine",
	} {
		if !keys[k] {
			t.Errorf("expected //shamlint:noalloc annotation on %s; tree scan found %v", k, keys)
		}
	}
	// Annotations only appear where a package-local gate test can
	// exercise them (fixture trees excluded by the testdata skip).
	for k := range keys {
		if strings.Contains(k, "testdata") {
			t.Errorf("testdata annotation leaked into tree scan: %s", k)
		}
	}
}
