package checknrun

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptTestOnly names the exported functions and methods under internal/
// that no program file calls, each with the product property its tests
// guard. Anything else that only tests reach is deleted or moved into a
// _test.go helper.
var keptTestOnly = map[string]string{
	"model.DLRM.EvalAUC": "the accuracy bound of a quantized restore (§4.4, Fig. 14) is measured as an AUC delta",
}

// TestNoTestOnlyExports type-checks every program file of the module and
// of benchmark/ and fails for each exported function or method under
// internal/ that nothing outside _test.go files references. A method that
// satisfies an interface counts as referenced; the *test helper packages
// are exempt.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module from source")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	l, err := newSourceLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "out" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if p, err := build.ImportDir(path, 0); err == nil && len(p.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, path)
			paths = append(paths, filepath.ToSlash(filepath.Join("repro", rel)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	var found []string
	kept := map[string]bool{}
	for _, p := range paths {
		if !strings.HasPrefix(p, "repro/internal/") || strings.HasSuffix(p, "test") {
			continue
		}
		pkg := l.pkgs[p]
		for _, name := range pkg.Scope().Names() {
			switch obj := pkg.Scope().Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !l.used[obj] {
					found = append(found, pkg.Name()+"."+name)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !l.used[m] && !l.satisfiesInterface(named, m.Name()) {
						found = append(found, pkg.Name()+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(found)
	for _, name := range found {
		if _, ok := keptTestOnly[name]; ok {
			kept[name] = true
			continue
		}
		t.Errorf("%s: only tests reach it; delete it, move it into a _test.go file, or keep it with a reason in keptTestOnly", name)
	}
	for name := range keptTestOnly {
		if !kept[name] {
			t.Errorf("keptTestOnly lists %s, which is gone or has a caller outside tests", name)
		}
	}
}

// sourceLoader type-checks the module's packages from their program files
// (build tags as for a plain go build), recording every object they
// reference, and hands the standard library to the source importer.
type sourceLoader struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package
	used   map[types.Object]bool
	ifaces []*types.Interface
}

// conventions are the interfaces a value satisfies by method name alone:
// the standard library looks for them without a program file naming them.
const conventions = `package conventions

import "encoding"

var (
	_ error
	_ encoding.BinaryMarshaler
	_ encoding.BinaryUnmarshaler
	_ interface{ Unwrap() error }
)
`

func newSourceLoader(root string) (*sourceLoader, error) {
	fset := token.NewFileSet()
	l := &sourceLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		used: map[types.Object]bool{},
	}
	f, err := parser.ParseFile(fset, "conventions.go", conventions, 0)
	if err == nil {
		_, err = l.check("conventions", []*ast.File{f})
	}
	return l, err
}

func (l *sourceLoader) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		pkg, err := l.std.Import(path)
		if err == nil {
			l.collectInterfaces(pkg)
		}
		return pkg, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(path, files)
}

// check type-checks one package, records what it references and the
// interfaces it names, and keeps it.
func (l *sourceLoader) check(path string, files []*ast.File) (*types.Package, error) {
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		l.used[obj] = true
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			l.ifaces = append(l.ifaces, it)
		}
	}
	l.collectInterfaces(pkg)
	return pkg, nil
}

func (l *sourceLoader) collectInterfaces(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			l.ifaces = append(l.ifaces, it)
		}
	}
}

// satisfiesInterface reports whether method name of named (or of a pointer
// to it) is how named satisfies an interface the loaded code knows.
func (l *sourceLoader) satisfiesInterface(named *types.Named, name string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range l.ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
