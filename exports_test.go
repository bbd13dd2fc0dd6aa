package reveal

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// Why an exported identifier under internal/ may stay although no program
// reaches it. Each allowlist entry gives one of these kinds.
type allowKind int

const (
	// testSupport: internal/testkit is test support by design.
	testSupport allowKind = iota + 1
	// sharedOracle: an oracle or helper that tests in more than one
	// package use, so no single package's _test.go can hold it. The
	// reason names those packages.
	sharedOracle
)

// exportAllowlist makes each named identifier an extra root of the
// reachability scan. An ID is a package (its path under internal/) or an
// identifier in the form the scan prints: pkg.Name, pkg.T.M or pkg.(*T).M.
// An entry that names nothing, or names what a program already reaches,
// fails TestExportsReachable, so the list can only shrink.
var exportAllowlist = []struct {
	id     string
	kind   allowKind
	reason string
}{
	{"testkit", testSupport, "seeded generators, big-int references, golden files and the Prometheus text parser for tests"},

	{"linalg.SolveCholesky", sharedOracle, "per-vector solve the linalg kernel tests and the sca FuzzScorerReference compare against"},
	{"linalg.Dot", sharedOracle, "dot product of the linalg tests, the sca scoring reference and the dbdd FullInstance oracle"},
	{"linalg.LogDetSPD", sharedOracle, "dense log-determinant of the linalg tests and the dbdd FullInstance oracle"},
}

// TestExportsReachable fails on any exported identifier declared in a
// non-test file under internal/ that no program reaches. Programs are the
// main packages under cmd/ and examples/ plus the perfbench module; the
// scan type-checks them and every package they import from source with
// the standard library's go/types, then follows declarations:
//
//   - roots are every declaration of those programs, every init func,
//     every package-level var initializer, and the allowlist;
//   - a declaration reaches every object its identifiers use;
//   - a method is reached when it is used directly; when a reached type
//     whose method set holds it (its receiver type, or a type that embeds
//     that type) implements, as T or *T, a reached interface that has a
//     method of that name; or when a reached type's method set holds it
//     under one of the standard library's by-name protocols (String,
//     Error, MarshalJSON, ...).
//
// Unexported dead code is left to staticcheck's U1000.
func TestExportsReachable(t *testing.T) {
	start := time.Now()
	s, err := newExportScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"cmd", "examples", "internal"} {
		if err := s.loadTree(dir); err != nil {
			t.Fatal(err)
		}
	}
	// perfbench is its own module that replaces reveal with this tree; its
	// package main type-checks here as plain files.
	if _, err := s.load(modulePath+"/perfbench", "perfbench", true); err != nil {
		t.Fatal(err)
	}
	units := s.units()

	var programRoots []*declUnit
	candidates := map[string]*declUnit{}
	for _, u := range units {
		if u.root {
			programRoots = append(programRoots, u)
		}
		if u.candidate() {
			candidates[u.key()] = u
		}
	}
	programReach := s.reach(units, programRoots)

	roots := programRoots
	for _, e := range exportAllowlist {
		if e.kind < testSupport || e.kind > sharedOracle || e.reason == "" {
			t.Errorf("allowlist entry %s: needs one of the two kinds and a reason", e.id)
		}
		var named []*declUnit
		if p := s.pkgs[modulePath+"/internal/"+e.id]; p != nil {
			for _, u := range units {
				if u.pkg == p {
					named = append(named, u)
				}
			}
		} else if u := candidates[e.id]; u != nil {
			if programReach[u.obj] {
				t.Errorf("stale allowlist entry %s: a program already reaches it", e.id)
			}
			named = append(named, u)
		}
		if len(named) == 0 {
			t.Errorf("stale allowlist entry %s: no such package or exported identifier under internal/", e.id)
		}
		roots = append(roots, named...)
	}
	reached := s.reach(units, roots)

	var dead []string
	for _, u := range candidates {
		if !reached[u.obj] {
			pos := s.fset.Position(u.obj.Pos())
			dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(pos.Filename), pos.Line, u.key()))
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported identifiers under internal/ are reached by no program; delete them, "+
			"move them into the owning package's _test.go files, or give an allowlist reason:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
	t.Logf("%d candidates, %d units, %s", len(candidates), len(units), time.Since(start).Round(time.Millisecond))
}

const modulePath = "reveal"

// stdlibByName lists methods the standard library finds by name on values
// it receives as any (fmt, encoding/json, errors, log/slog).
var stdlibByName = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"MarshalBinary", "UnmarshalBinary", "LogValue", "ServeHTTP",
}

// exportScan type-checks the module's packages from source, each once, so
// every declaration has one object that all its uses share.
type exportScan struct {
	fset  *token.FileSet
	ctx   build.Context
	sizes types.Sizes
	pkgs  map[string]*scannedPkg // by import path
}

type scannedPkg struct {
	path   string
	module bool
	files  []*ast.File
	types  *types.Package
	info   *types.Info
}

// newExportScan prepares a scan of the module in the working directory,
// which go test sets to the root package's.
func newExportScan() (*exportScan, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, err
	}
	ctx := build.Default
	// No cgo: the standard library then type-checks from its pure-Go
	// files, without running the cgo tool.
	ctx.CgoEnabled = false
	return &exportScan{
		fset:  token.NewFileSet(),
		ctx:   ctx,
		sizes: types.SizesFor("gc", ctx.GOARCH),
		pkgs:  map[string]*scannedPkg{},
	}, nil
}

// loadTree loads every package directory under dir.
func (s *exportScan) loadTree(dir string) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		_, err = s.load(modulePath+"/"+filepath.ToSlash(path), path, true)
		return err
	})
}

// ImportFrom implements types.ImporterFrom.
func (s *exportScan) ImportFrom(path, fromDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	var p *scannedPkg
	var err error
	if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
		p, err = s.load(path, "."+strings.TrimPrefix(path, modulePath), true)
	} else {
		// Vendored standard-library imports resolve against the importing
		// package's directory; the module's imports of the standard
		// library resolve in GOROOT.
		if !strings.HasPrefix(fromDir, filepath.Join(s.ctx.GOROOT, "src")) {
			fromDir = ""
		}
		var bp *build.Package
		if bp, err = s.ctx.Import(path, fromDir, 0); err == nil {
			p, err = s.load(bp.ImportPath, bp.Dir, false)
		}
	}
	if err == nil && p == nil {
		err = fmt.Errorf("import %s: no Go files, or an import cycle", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// Import implements types.Importer.
func (s *exportScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// load parses and type-checks one package. Module packages keep their
// function bodies and use information; standard-library packages are
// checked for their exported API only. A module directory without
// non-test Go files yields nil.
func (s *exportScan) load(path, dir string, module bool) (*scannedPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	s.pkgs[path] = nil // an import cycle fails in the type checker, not here
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &scannedPkg{path: path, module: module}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := s.ctx.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		if !module {
			return nil, fmt.Errorf("%s: no Go files in %s", path, dir)
		}
		delete(s.pkgs, path)
		return nil, nil
	}
	var firstErr error
	conf := types.Config{
		Importer:         s,
		Sizes:            s.sizes,
		IgnoreFuncBodies: !module,
		// Keep checking past errors: only a module package's errors fail
		// the scan.
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	if module {
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
	}
	p.types, _ = conf.Check(path, s.fset, p.files, p.info)
	if firstErr != nil && module {
		return nil, fmt.Errorf("type-checking %s: %v", path, firstErr)
	}
	s.pkgs[path] = p
	return p, nil
}

// declUnit is one object a top-level declaration of a module package
// declares: a func or method, a type, or one name of a var or const spec.
// Names of one spec share its node, so a use of one name still reports
// the others as unreached.
type declUnit struct {
	pkg  *scannedPkg
	node ast.Node
	obj  types.Object
	recv *types.TypeName // a method's receiver base type
	root bool
}

// units lists every top-level declaration of the module's packages.
func (s *exportScan) units() []*declUnit {
	var out []*declUnit
	for _, p := range s.pkgs {
		if p == nil || !p.module {
			continue
		}
		program := p.types.Name() == "main"
		add := func(node ast.Node, obj types.Object, root bool) {
			u := &declUnit{pkg: p, node: node, obj: obj, root: program || root}
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					u.recv = baseTypeName(recv.Type())
				}
			}
			out = append(out, u)
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d, p.info.Defs[d.Name], d.Recv == nil && d.Name.Name == "init")
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec, p.info.Defs[spec.Name], false)
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								if o := p.info.Defs[n]; o != nil {
									add(spec, o, d.Tok == token.VAR && len(spec.Values) > 0)
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// candidate reports whether the unit declares an exported identifier in a
// non-test file under internal/.
func (u *declUnit) candidate() bool {
	return strings.HasPrefix(u.pkg.path, modulePath+"/internal/") && u.obj.Exported()
}

// key names the unit's identifier as pkg.Name, pkg.T.M or pkg.(*T).M,
// with pkg its path under internal/.
func (u *declUnit) key() string {
	pkg := strings.TrimPrefix(u.pkg.path, modulePath+"/internal/")
	if u.recv == nil {
		return pkg + "." + u.obj.Name()
	}
	recv := u.recv.Name()
	if _, ptr := u.obj.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
		recv = "(*" + recv + ")"
	}
	return pkg + "." + recv + "." + u.obj.Name()
}

func baseTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// reach returns every object reached from roots.
func (s *exportScan) reach(units []*declUnit, roots []*declUnit) map[types.Object]bool {
	unitOf := map[types.Object]*declUnit{}
	for _, u := range units {
		unitOf[u.obj] = u
	}
	stdNames := map[string]bool{}
	for _, n := range stdlibByName {
		stdNames[n] = true
	}
	// A reached interface method is a name and the interface declaring it;
	// a reached type's method is a name and the method its pointer's method
	// set selects, its own or one promoted from an embedded field.
	type ifaceMethod struct {
		name string
		it   *types.Interface
	}
	type typeMethod struct {
		t  types.Type
		fn types.Object
	}
	reached := map[types.Object]bool{}
	ifaceMethods := map[ifaceMethod]bool{}
	ifacesByName := map[string][]*types.Interface{}
	typeMethodsByName := map[string][]typeMethod{}
	visited := map[*declUnit]bool{}
	var queue []*declUnit
	var markObj func(types.Object)
	visit := func(u *declUnit) {
		if !visited[u] {
			visited[u] = true
			queue = append(queue, u)
		}
	}
	addMethod := func(name string, it *types.Interface) {
		if ifaceMethods[ifaceMethod{name, it}] {
			return
		}
		ifaceMethods[ifaceMethod{name, it}] = true
		ifacesByName[name] = append(ifacesByName[name], it)
		for _, m := range typeMethodsByName[name] {
			if implements(m.t, it) {
				markObj(m.fn)
			}
		}
	}
	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				addMethod(it.Method(i).Name(), it)
			}
		}
	}
	addType := func(t types.Type) {
		if types.IsInterface(t) {
			return
		}
		ms := types.NewMethodSet(types.NewPointer(t))
		for i := 0; i < ms.Len(); i++ {
			fn := ms.At(i).Obj()
			name := fn.Name()
			typeMethodsByName[name] = append(typeMethodsByName[name], typeMethod{t, fn})
			if stdNames[name] {
				markObj(fn)
				continue
			}
			for _, it := range ifacesByName[name] {
				if implements(t, it) {
					markObj(fn)
					break
				}
			}
		}
	}
	markObj = func(o types.Object) {
		o = origin(o)
		if reached[o] {
			return
		}
		reached[o] = true
		if u := unitOf[o]; u != nil {
			visit(u)
		}
		switch o := o.(type) {
		case *types.TypeName:
			addIface(o.Type())
			if unitOf[o] != nil {
				addType(o.Type())
			}
		case *types.Var:
			addIface(o.Type())
		case *types.Func:
			sig := o.Type().(*types.Signature)
			if r := sig.Recv(); r != nil && types.IsInterface(r.Type()) {
				if it, ok := r.Type().Underlying().(*types.Interface); ok {
					addMethod(o.Name(), it)
				}
			}
			for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					t := tuple.At(i).Type()
					if sl, ok := t.(*types.Slice); ok && sig.Variadic() {
						addIface(sl.Elem())
					}
					addIface(t)
				}
			}
		}
	}
	for _, u := range roots {
		markObj(u.obj)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		info := u.pkg.info
		ast.Inspect(u.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if o := info.Uses[n]; o != nil && o.Pkg() != nil {
					markObj(o)
				}
			case *ast.InterfaceType:
				addIface(info.Types[n].Type)
			}
			return true
		})
	}
	return reached
}

// implements reports whether t or *t implements it. Implements leaves an
// uninstantiated generic type unspecified, so such a type is taken to
// implement every interface: its methods are then reached by name.
func implements(t types.Type, it *types.Interface) bool {
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return true
	}
	return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
}
