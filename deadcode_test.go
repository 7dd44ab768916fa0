package ehnabench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names the exported package-level declarations in
// internal/ that no non-test program file references but that stay, each
// with the reason it stays. Keys are "import/path.Name".
//
// Methods are not scanned. Among those only tests call, ag's unfused
// tape ops (Mul, Tanh, SoftmaxRow, RowScale, StackRows, ConcatScalars)
// and nn's Embedding.RowGrad stay: they are the references that
// ag/fused_test.go and ehna/reference_test.go hold the fused ops to, and
// a test in package ehna cannot see ag's or nn's _test.go files.
var deadExportAllowlist = map[string]string{
	"ehna/internal/ehna.Load":                         "reads back the model.gob checkpoint examples/serving writes with Model.Save; serialize_test holds the round trip",
	"ehna/internal/tensor.Equal":                      "the matrix comparison the tests of tensor, nn, ehna and cmd/ehna share",
	"ehna/internal/testutil.TwoCommunities":           "testutil is a fixture package: its callers are the baselines' tests",
	"ehna/internal/testutil.CommunitySeparation":      "testutil is a fixture package: its callers are the baselines' tests",
	"ehna/internal/testutil.CommunityScoreSeparation": "testutil is a fixture package: its callers are the baselines' tests",
}

// TestNoDeadExports fails when an exported package-level func, type,
// const or var declared under internal/ is referenced by no non-test Go
// file in cmd/, internal/, examples/ or bench/ other than its own
// declaration. Such a name is code the program carries for nothing:
// delete it, move it into the _test.go file of the package whose tests
// use it, or allowlist it above with its reason.
//
// The scan is syntactic (go/parser and go/ast only). A reference from
// another package is a selector on the file's import of the declaring
// package; a reference inside the package is a bare identifier. Method
// names are not tracked, and a bare identifier that merely shares the
// name (a struct literal key, say) counts as a reference, so the list
// is a floor, never a false alarm.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type pkgFile struct {
		path string // import path of the file's package
		file *ast.File
	}
	var files []pkgFile
	pkgNames := map[string]string{} // import path → package name
	for _, root := range []string{"cmd", "internal", "examples", "bench"} {
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (d.Name() == "testdata" || d.Name() == "out") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ip := "ehna/" + filepath.ToSlash(filepath.Dir(p))
			files = append(files, pkgFile{ip, f})
			pkgNames[ip] = f.Name.Name
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Declarations: exported package-level names under internal/, with
	// the source span of each one's own declaration.
	type span struct{ from, to token.Pos }
	decls := map[string]span{}
	for _, pf := range files {
		if !strings.HasPrefix(pf.path, "ehna/internal/") {
			continue
		}
		for _, d := range pf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					decls[pf.path+"."+d.Name.Name] = span{d.Pos(), d.End()}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls[pf.path+"."+s.Name.Name] = span{s.Pos(), s.End()}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls[pf.path+"."+n.Name] = span{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	referenced := map[string]bool{}
	for _, pf := range files {
		imports := map[string]string{} // name in this file → import path
		for _, im := range pf.file.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := pkgNames[ip]
			if im.Name != nil {
				name = im.Name.Name
			}
			if name != "" {
				imports[name] = ip
			}
		}
		ref := func(key string, at token.Pos) {
			if s, ok := decls[key]; ok && (at < s.from || at >= s.to) {
				referenced[key] = true
			}
		}
		fields := map[*ast.Ident]bool{} // x.Sel where x is not a package
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						ref(ip+"."+n.Sel.Name, n.Pos())
						return false
					}
				}
				fields[n.Sel] = true
			case *ast.Ident:
				if !fields[n] {
					ref(pf.path+"."+n.Name, n.Pos())
				}
			}
			return true
		})
	}

	var dead []string
	for key := range decls {
		if !referenced[key] && deadExportAllowlist[key] == "" {
			dead = append(dead, key)
		}
	}
	for key, reason := range deadExportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s (%s) names no declaration: drop it", key, reason)
		} else if referenced[key] {
			t.Errorf("allowlist entry %s is referenced by program code now: drop it", key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s: exported, but no non-test file references it; delete it, move it into a _test.go file, or allowlist it with a reason", key)
	}
}
