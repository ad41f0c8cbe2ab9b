package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// NoallocRef names one //shamlint:noalloc-annotated function:
// "internal/core.(*Detector).DetectDomainBytesBackend". ScanNoallocTree
// gathers these with a comment-only parse (no type checking), so the
// dynamic AllocsPerRun gate can enumerate the contract list cheaply at
// test time and fail when it drifts from the annotations.
type NoallocRef struct {
	Pkg  string // module-relative package dir ("internal/core")
	Func string // display name ("(*Detector).DetectDomainBytesBackend")
	File string // absolute path of the declaring file
	Line int
}

func (r NoallocRef) Key() string { return r.Pkg + "." + r.Func }

// ScanNoallocTree walks root (a module checkout) for non-test .go
// files carrying //shamlint:noalloc on a function declaration.
func ScanNoallocTree(root string) ([]NoallocRef, error) {
	var refs []NoallocRef
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if perr != nil {
			return perr
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if !strings.HasPrefix(strings.TrimSpace(c.Text), noallocMarker) {
					continue
				}
				rel, rerr := filepath.Rel(root, filepath.Dir(path))
				if rerr != nil {
					rel = filepath.Dir(path)
				}
				refs = append(refs, NoallocRef{
					Pkg:  filepath.ToSlash(rel),
					Func: FuncDisplayName(fd),
					File: path,
					Line: fset.Position(fd.Pos()).Line,
				})
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Key() < refs[j].Key() })
	return refs, nil
}
