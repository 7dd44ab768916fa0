package ehnabench

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadCodeAllowlist names the declarations the scan below finds unused by
// any program but that stay, each with the reason it stays. Keys are
// "import/path.Name" for package-level names, "import/path.Type.Method"
// for methods (concrete or interface) and "import/path.Type.Field" for
// unset fields.
//
// A test in one package cannot see another package's _test.go files, so a
// helper the tests of several packages share, or a reference that another
// package's tests hold a fused kernel to, lives in a non-test file.
var deadCodeAllowlist = map[string]string{
	"ehna/internal/ehna.Load":                         "reads back the model.gob checkpoint examples/serving writes with Model.Save; serialize_test holds the round trip",
	"ehna/internal/tensor.Equal":                      "the matrix comparison the tests of tensor, nn, ehna and cmd/ehna share",
	"ehna/internal/tensor.Matrix.Clone":               "the matrix copy the tests of tensor, ag, nn and ehna share",
	"ehna/internal/tensor.Matrix.Sum":                 "the matrix sum the tests of tensor, ag and nn share",
	"ehna/internal/testutil.TwoCommunities":           "testutil is a fixture package: its callers are the baselines' tests",
	"ehna/internal/testutil.CommunitySeparation":      "testutil is a fixture package: its callers are the baselines' tests",
	"ehna/internal/testutil.CommunityScoreSeparation": "testutil is a fixture package: its callers are the baselines' tests",
	"ehna/internal/embstore.Store.Equal":              "the store comparison the tests of embstore, ann and cmd/ehnad share",
	"ehna/internal/embstore.Store.IDs":                "the id listing the tests of embstore, ann and cmd/ehnad share",
	"ehna/internal/faultfs.Injector.Clear":            "heals the injected faults in the tests of faultfs, wal and cmd/ehnad",
	"ehna/internal/ag.Tape.Mul":                       unfusedReference,
	"ehna/internal/ag.Tape.Tanh":                      unfusedReference,
	"ehna/internal/ag.Tape.Sigmoid":                   unfusedReference,
	"ehna/internal/ag.Tape.AddRowBroadcast":           unfusedReference,
	"ehna/internal/ag.Tape.SoftmaxRow":                unfusedReference,
	"ehna/internal/ag.Tape.RowScale":                  unfusedReference,
	"ehna/internal/ag.Tape.StackRows":                 unfusedReference,
	"ehna/internal/ag.Tape.ConcatScalars":             unfusedReference,
	"ehna/internal/nn.Embedding.RowGrad":              "ehna's tests read sparse row gradients through it: ehna_test counts touched rows, reference_test compares them",
}

// unfusedReference is the reason each of ag's unfused tape ops stays.
const unfusedReference = "an unfused tape op: ag/fused_test.go and ehna/reference_test.go hold the fused ops to the pass built from it"

// TestNoDeadExports fails on code no program reaches. It type-checks
// every package under cmd/, internal/, examples/ and bench/ from the
// files the default build context selects, leaving out _test.go files,
// and fails on
//
//   - a package-level name, exported or not, that no program file uses
//     outside its own declaration (a type's own methods do not count);
//   - a method nothing calls, directly or through an interface method
//     something calls (every method of a standard-library interface
//     counts as called: the runtime calls String, Error, MarshalJSON,
//     ServeHTTP, Write and the rest);
//   - an interface method nothing calls through an interface;
//   - an exported struct field that no program file sets: an option
//     nobody sets is a constant. A set is a literal key, an assignment,
//     an op-assign, ++ or --, an element store, or a taken address; a
//     json-tagged field is set by reflection.
//
// Delete what it names, move it into the _test.go file of the package
// whose tests use it, or allowlist it above with its reason. Files that
// only other GOOS/GOARCH values or build tags select are not judged.
func TestNoDeadExports(t *testing.T) {
	tr, err := loadTree(".", "ehna/", "cmd", "internal", "examples", "bench")
	if err != nil {
		t.Fatal(err)
	}
	found, declared := tr.deadCode()
	for key, reason := range deadCodeAllowlist {
		if !declared[key] {
			t.Errorf("allowlist entry %s (%s) names no declaration: drop it", key, reason)
		} else if _, dead := found[key]; !dead {
			t.Errorf("allowlist entry %s is used by program code now: drop it", key)
		}
	}
	var keys []string
	for key := range found {
		if deadCodeAllowlist[key] == "" {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s: %s; delete it, move it into a _test.go file, or allowlist it with a reason", key, found[key])
	}
}

// TestDeadCodeGateFixture runs the scan over testdata/deadcode, a package
// with one planted case per rule and the cases each rule must let pass.
// Two of its files the default build context leaves out: one redeclares
// a function (type-checking it would fail), one declares an unused one.
func TestDeadCodeGateFixture(t *testing.T) {
	tr, err := loadTree("testdata/deadcode", "deadcode/", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	found, _ := tr.deadCode()
	for key := range found {
		got = append(got, strings.TrimPrefix(key, "deadcode/fixture."))
	}
	sort.Strings(got)
	want := []string{
		"Config.Unset",  // a config field nothing sets
		"Finder.Lost",   // an interface method nothing calls through the interface
		"Orphan",        // a type only its own methods name
		"Orphan.Touch",  // ... and that type's method
		"Widget.unused", // a method only a test calls
		"deadFunc",      // a package-level func only a test calls
		"unusedConst",   // an unexported constant
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fixture findings:\n got %q\nwant %q", got, want)
	}
}

// tree is every package under a set of directories, type-checked from
// source with the program's files only.
type tree struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*treePkg // by import path
}

type treePkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
}

// loadTree parses the non-test Go files under root/dirs that the default
// build context selects (build.Default.MatchFile: GOOS and GOARCH file
// suffixes and //go:build lines) and type-checks each directory as the
// package prefix+dir. Standard-library packages are type-checked from
// source, so the scan needs nothing but GOROOT.
func loadTree(root, prefix string, dirs ...string) (*tree, error) {
	tr := &tree{fset: token.NewFileSet(), pkgs: map[string]*treePkg{}}
	tr.std = importer.ForCompiler(tr.fset, "source", nil)
	for _, d := range dirs {
		err := filepath.WalkDir(filepath.Join(root, d), func(p string, e os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if n := e.Name(); n == "testdata" || n == "out" || strings.HasPrefix(n, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			dir, name := filepath.Split(p)
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
				return err
			}
			f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(p))
			if err != nil {
				return err
			}
			ip := prefix + filepath.ToSlash(rel)
			pkg := tr.pkgs[ip]
			if pkg == nil {
				pkg = &treePkg{path: ip}
				tr.pkgs[ip] = pkg
			}
			pkg.files = append(pkg.files, f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, p := range tr.sorted() {
		if _, err := tr.check(p); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func (tr *tree) sorted() []*treePkg {
	var ps []*treePkg
	for _, p := range tr.pkgs {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].path < ps[j].path })
	return ps
}

// Import makes the tree its own importer: a package of the tree is
// type-checked from the tree's files, anything else from GOROOT.
func (tr *tree) Import(path string) (*types.Package, error) {
	if p := tr.pkgs[path]; p != nil {
		return tr.check(p)
	}
	return tr.std.Import(path)
}

func (tr *tree) check(p *treePkg) (*types.Package, error) {
	if p.types != nil || p.err != nil {
		return p.types, p.err
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var errs []error
	conf := types.Config{Importer: tr, Error: func(err error) { errs = append(errs, err) }}
	p.types, _ = conf.Check(p.path, tr.fset, p.files, p.info)
	if len(errs) > 0 {
		p.err = fmt.Errorf("type-checking %s: %w", p.path, errors.Join(errs...))
	}
	return p.types, p.err
}

// inTree reports whether obj is declared in one of the tree's packages.
func (tr *tree) inTree(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && tr.pkgs[obj.Pkg().Path()] != nil
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvType is the named type a method belongs to, nil for a function.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// key names a declaration the way the allowlist does.
func key(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if r := recvType(fn); r != nil {
			return obj.Pkg().Path() + "." + r.Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// deadCode applies the rules TestNoDeadExports documents. It returns each
// finding's key with what is wrong with it, and the key of every
// declaration it judged.
func (tr *tree) deadCode() (found map[string]string, declared map[string]bool) {
	owner := map[types.Object]ast.Node{} // package-level object or method → its declaration
	var (
		objects  []types.Object // package-level names
		methods  []*types.Func  // concrete methods
		ifaceFns []*types.Func  // explicit interface methods
		named    []*types.TypeName
		structs  = map[*types.Struct]*types.TypeName{}
	)
	for _, p := range tr.sorted() {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					owner[fn] = d
					switch {
					case d.Recv != nil:
						methods = append(methods, fn)
					case d.Name.Name != "init" && !(d.Name.Name == "main" && p.types.Name() == "main"):
						objects = append(objects, fn)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name].(*types.TypeName)
							owner[obj] = s
							objects = append(objects, obj)
							named = append(named, obj)
							switch u := obj.Type().Underlying().(type) {
							case *types.Interface:
								for i := 0; i < u.NumExplicitMethods(); i++ {
									ifaceFns = append(ifaceFns, u.ExplicitMethod(i))
								}
							case *types.Struct:
								structs[u] = obj
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									obj := p.info.Defs[n]
									owner[obj] = s
									objects = append(objects, obj)
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	called := map[*types.Func]bool{} // interface methods called through their interface
	set := map[*types.Var]bool{}     // struct fields a program sets
	for _, p := range tr.sorted() {
		info := p.info
		markSet := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
						set[v.Origin()] = true
					}
					e = x.X
				default:
					return
				}
			}
		}
		// inspect walks root; a use inside it does not count for the
		// declarations in own.
		inspect := func(root ast.Node, own ...ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					obj := origin(info.Uses[n])
					if !tr.inTree(obj) {
						return true
					}
					if fn, ok := obj.(*types.Func); ok {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							called[fn] = true
							return true
						}
					}
					for _, o := range own {
						if owner[obj] == o {
							return true
						}
					}
					used[obj] = true
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok || len(n.Elts) == 0 {
						return true
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							set[st.Field(i).Origin()] = true
						}
						return true
					}
					for _, el := range n.Elts {
						if v, ok := info.Uses[el.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
							set[v.Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						markSet(e)
					}
				case *ast.IncDecStmt:
					markSet(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						markSet(n.Key)
						markSet(n.Value)
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markSet(n.X)
					}
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					// A type's own methods do not use it.
					if r := recvType(info.Defs[d.Name].(*types.Func)); r != nil {
						inspect(d, d, owner[r])
					} else {
						inspect(d, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						inspect(s, s)
					}
				}
			}
		}
	}

	// Methods reached through interfaces. Every method of an interface a
	// standard-library package declares counts as called, since the
	// library calls it where the scan cannot see.
	ifaces := map[types.Type][]*types.Func{} // interface → its called methods
	for fn := range called {
		r := fn.Type().(*types.Signature).Recv().Type()
		ifaces[r] = append(ifaces[r], fn)
	}
	for _, pkg := range tr.stdPackages() {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || isGeneric(tn) {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[tn.Type()] = append(ifaces[tn.Type()], it.Method(i))
				}
			}
		}
	}
	errIface := types.Universe.Lookup("error").Type()
	ifaces[errIface] = append(ifaces[errIface], errIface.Underlying().(*types.Interface).Method(0))
	for _, tn := range named {
		if isGeneric(tn) {
			continue
		}
		v := tn.Type()
		isIface := types.IsInterface(v)
		if !isIface {
			v = types.NewPointer(v)
		}
		mset := types.NewMethodSet(v)
		for it, fns := range ifaces {
			if mset.Lookup(fns[0].Pkg(), fns[0].Name()) == nil || !types.Implements(v, it.Underlying().(*types.Interface)) {
				continue
			}
			for _, fn := range fns {
				m := origin(mset.Lookup(fn.Pkg(), fn.Name()).Obj()).(*types.Func)
				if isIface {
					called[m] = true
				} else {
					used[m] = true
				}
			}
		}
	}

	found, declared = map[string]string{}, map[string]bool{}
	judge := func(k string, dead bool, why string) {
		declared[k] = true
		if dead {
			found[k] = why
		}
	}
	for _, obj := range objects {
		judge(key(obj), !used[obj], "no program file uses it")
	}
	for _, fn := range methods {
		judge(key(fn), !used[fn], "no program calls it, directly or through an interface")
	}
	for _, fn := range ifaceFns {
		judge(key(fn), !called[fn], "no program calls it through the interface")
	}
	for st, tn := range structs {
		for i := 0; i < st.NumFields(); i++ {
			if fld := st.Field(i); fld.Exported() && !fld.Embedded() {
				judge(tn.Pkg().Path()+"."+tn.Name()+"."+fld.Name(),
					!set[fld] && reflect.StructTag(st.Tag(i)).Get("json") == "", "a field no program sets")
			}
		}
	}
	return found, declared
}

// stdPackages is every package outside the tree that the tree imports,
// directly or not.
func (tr *tree) stdPackages() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !seen[q] {
				seen[q] = true
				if tr.pkgs[q.Path()] == nil {
					out = append(out, q)
				}
				walk(q)
			}
		}
	}
	for _, p := range tr.sorted() {
		walk(p.types)
	}
	return out
}

func isGeneric(tn *types.TypeName) bool {
	n, ok := tn.Type().(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// readmeIdentAllowlist names the backquoted words in README that look
// like Go identifiers but name nothing in the tree, each with its reason.
var readmeIdentAllowlist = map[string]string{
	"DIR": "the -wal directory, as a placeholder in prose",
}

// TestREADMEIdentifiersExist fails when README names, in backquotes, a Go
// identifier that no Go file in the repo declares or uses (test files
// included, since README names tests and benchmarks) and no assembly file
// spells. Every identifier a compiled file uses exists, so the set holds
// the standard library's names the tree uses too. A span counts as an
// identifier when it is a dotted path of Go names, optionally called
// (`vecmath.Backend()`), with an upper-case letter somewhere; each name
// along the path must exist.
func TestREADMEIdentifiersExist(t *testing.T) {
	names := map[string]bool{}
	word := regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(p) {
		case ".s":
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, w := range word.FindAll(src, -1) {
				names[string(w)] = true
			}
		case ".go":
			f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					names[n.Name] = true
				case *ast.BasicLit:
					// Environment variables and flag names are spelled in
					// string literals.
					if s, err := strconv.Unquote(n.Value); err == nil && s != "" && word.FindString(s) == s {
						names[s] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	ident := regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$`)
	span := regexp.MustCompile("`([^`\n]+)`")
	inFence := false
	for i, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range span.FindAllStringSubmatch(line, -1) {
			s := m[1]
			if !ident.MatchString(s) || strings.ToLower(s) == s || strings.HasSuffix(s, ".json") || readmeIdentAllowlist[s] != "" {
				continue // a word, a file name (`BENCHMARK.json`), or allowlisted
			}
			for _, part := range strings.Split(strings.TrimSuffix(s, "()"), ".") {
				if !names[part] {
					t.Errorf("README.md:%d: `%s` names %s, which no Go or assembly file in the repo declares or uses", i+1, s, part)
					break
				}
			}
		}
	}
}
