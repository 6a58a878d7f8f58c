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
	l, paths := loadModule(t)
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

// keptUnset names the settings that no program file sets, each with the
// reason it stays a field rather than a constant.
var keptUnset = map[string]string{
	"chaos.RunnerConfig.AllowInjection":   "a safety gate: only the checker's own tests may script a corruption",
	"ckpt.Config.ChunkRows":               "test seam: small chunks put many chunks in a small table",
	"ctrl.RegisterConfig.Clock":           "test seam: lease expiry on a simulated clock",
	"objstore.DiskConfig.SegmentBytes":    "test seam: small segments cross rotation in a small store",
	"objstore.DiskConfig.CompactRatio":    "test seam: compaction on demand, or never",
	"objstore.DiskConfig.CompactMinBytes": "test seam: compaction of a log smaller than 1 MiB",
	"shardhost.Config.TableRows":          "test seam: a small model for end-to-end shard tests",
	"shardhost.Config.Dim":                "test seam: a small model for end-to-end shard tests",
	"serve.ClientConfig.DialTimeout":      "cnrbench compiles against serve.ClientConfig; it goes with the bench's next change",
}

// settingPackages are the packages whose …Config structs are operator
// settings. model and experiments are out: their Config fields are DLRM
// and figure parameters their Default* constructors set.
var settingPackages = []string{"ckpt", "ctrl", "ctrl/shardhost", "objstore", "serve", "chaos", "data", "trainer"}

// TestEverySettingHasAWriter fails for each exported field of an exported
// …Config struct in settingPackages that no program file of the module or
// of benchmark/ writes outside the file that declares it — a setting
// nothing sets is a constant. A write is the key of a composite literal
// or the target of an assignment.
func TestEverySettingHasAWriter(t *testing.T) {
	l, _ := loadModule(t)
	kept := map[string]bool{}
	for _, p := range settingPackages {
		pkg := l.pkgs["repro/internal/"+p]
		if pkg == nil {
			t.Fatalf("package internal/%s is not loaded", p)
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			decl := l.fset.Position(tn.Pos()).Filename
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || l.writtenOutside(f, decl) {
					continue
				}
				setting := pkg.Name() + "." + name + "." + f.Name()
				if _, ok := keptUnset[setting]; ok {
					kept[setting] = true
					continue
				}
				t.Errorf("%s: no program file sets it; make it a constant, or keep it with a reason in keptUnset", setting)
			}
		}
	}
	for setting := range keptUnset {
		if !kept[setting] {
			t.Errorf("keptUnset lists %s, which is gone or has a writer", setting)
		}
	}
}

// loadModule type-checks every program file of the module and of
// benchmark/ and returns the loader with the import paths it loaded.
func loadModule(t *testing.T) (*sourceLoader, []string) {
	t.Helper()
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
	return l, paths
}

// sourceLoader type-checks the module's packages from their program files
// (build tags as for a plain go build), recording every object they
// reference and the files that write each struct field, and hands the
// standard library to the source importer.
type sourceLoader struct {
	root   string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*types.Package
	used   map[types.Object]bool
	writes map[*types.Var][]string
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
		root:   root,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*types.Package{},
		used:   map[types.Object]bool{},
		writes: map[*types.Var][]string{},
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
	for _, f := range files {
		l.recordWrites(f, info)
	}
	l.collectInterfaces(pkg)
	return pkg, nil
}

// recordWrites notes each struct field that f writes: as the key of a
// composite literal, or as the target of an assignment or ++/--.
func (l *sourceLoader) recordWrites(f *ast.File, info *types.Info) {
	file := l.fset.Position(f.Pos()).Filename
	ast.Inspect(f, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					targets = append(targets, kv.Key)
				}
			}
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		}
		for _, e := range targets {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			id, ok := e.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				l.writes[v] = append(l.writes[v], file)
			}
		}
		return true
	})
}

// writtenOutside reports whether a file other than decl writes field.
func (l *sourceLoader) writtenOutside(field *types.Var, decl string) bool {
	for _, file := range l.writes[field] {
		if file != decl {
			return true
		}
	}
	return false
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
