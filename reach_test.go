package simra

import (
	"bufio"
	"errors"
	"fmt"
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

// TestReachability lists every function, method and type that non-test
// code declares but no user-facing entry point can reach, and compares
// the list with testdata/unreachable.txt. The roots are:
//
//   - every main under cmd/ and examples/, and the perfbench harness
//     that builds against this module;
//   - every exported name of the simra facade and of pkg/simraclient;
//   - every exported method (promoted ones included) of a type the
//     facade exposes, also when it exposes it through an alias;
//   - init functions and package-level var initializers.
//
// A method that implements an interface — its name and signature match a
// method of an interface declared in the program or in any std package it
// imports — is reachable once its receiver type is. Everything else is
// reachable only through a reference from reachable code.
//
// A name missing from the file fails the test (new dead code), and so
// does a line the scan no longer reports: the allowlist only shrinks.
func TestReachability(t *testing.T) {
	l := &reachLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*reachPkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	if err := l.loadModule("."); err != nil {
		t.Fatal(err)
	}
	got := l.unreachable()

	allow, err := readAllowlist("testdata/unreachable.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range got {
		if _, ok := allow[name]; !ok {
			t.Errorf("unreachable from every CLI, facade and SDK root: %s (delete it, or move it into a _test.go file)", name)
		}
	}
	seen := map[string]bool{}
	for _, name := range got {
		seen[name] = true
	}
	for name := range allow {
		if !seen[name] {
			t.Errorf("testdata/unreachable.txt: stale line %q is reachable or gone; delete the line", name)
		}
	}
}

// readAllowlist parses lines of the form "<name> <reason>"; blank lines
// and lines starting with '#' are skipped. Every name needs a reason.
func readAllowlist(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %q has no reason", path, n, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate %q", path, n, name)
		}
		out[name] = reason
	}
	return out, sc.Err()
}

const reachModule = "repro"

type reachPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachLoader type-checks the module's packages from their non-test
// files, sharing one object graph, and delegates std imports to the
// source importer.
type reachLoader struct {
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*reachPkg // by import path; types set once checked
}

func inModule(path string) bool {
	return path == reachModule || strings.HasPrefix(path, reachModule+"/")
}

// loadModule parses every package under root (skipping testdata and
// dot-directories) and type-checks them all.
func (l *reachLoader) loadModule(root string) error {
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); dir != root && (base == "testdata" || strings.HasPrefix(base, ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		p := &reachPkg{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		l.pkgs[filepath.ToSlash(filepath.Join(reachModule, dir))] = p
		return nil
	})
	if err != nil {
		return err
	}
	for path := range l.pkgs {
		if _, err := l.check(path); err != nil {
			return err
		}
	}
	return nil
}

func (l *reachLoader) check(path string) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("reach: no package %s in the module", path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, ".", 0)
}

func (l *reachLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if inModule(path) {
		return l.check(path)
	}
	return l.std.ImportFrom(path, dir, mode)
}

// reachGraph is the reference graph over the module's package-level
// objects and methods.
type reachGraph struct {
	edges map[types.Object][]types.Object
	// ifaces maps a method name to the signatures interfaces declare
	// under it.
	ifaces map[string][]*types.Signature
}

// canon maps an instantiated generic object to its declaration.
func canon(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// refs returns the module-level objects a syntax subtree refers to.
func refs(info *types.Info, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
			return true
		}
		switch o := canon(obj).(type) {
		case *types.Func, *types.TypeName:
			out = append(out, o)
		case *types.Var, *types.Const:
			if o.Parent() == o.Pkg().Scope() {
				out = append(out, o)
			}
		}
		return true
	})
	return out
}

// unreachable returns the sorted names of the module's unreachable
// funcs, methods and types.
func (l *reachLoader) unreachable() []string {
	g := reachGraph{edges: map[types.Object][]types.Object{}, ifaces: map[string][]*types.Signature{}}
	var roots, decls []types.Object
	for path, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					g.edges[obj] = refs(p.info, d)
					decls = append(decls, obj)
					isMain := p.types.Name() == "main" && d.Name.Name == "main" && d.Recv == nil
					if isMain || d.Name.Name == "init" && d.Recv == nil {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							g.edges[obj] = refs(p.info, s)
							decls = append(decls, obj)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								obj := p.info.Defs[name]
								g.edges[obj] = refs(p.info, s)
								if c, ok := obj.(*types.Const); ok {
									if n, ok := types.Unalias(c.Type()).(*types.Named); ok {
										g.edges[obj] = append(g.edges[obj], n.Obj())
									}
								} else {
									roots = append(roots, obj)
								}
							}
						}
					}
				}
			}
		}
		for _, tv := range p.info.Types {
			g.addIface(tv.Type)
		}
		if path == reachModule || path == reachModule+"/pkg/simraclient" {
			roots = append(roots, exportedAPI(p.types)...)
		}
	}
	g.addStdIfaces(l)

	reach := map[types.Object]bool{}
	queue := roots
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if reach[obj] {
			continue
		}
		reach[obj] = true
		queue = append(queue, g.edges[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			queue = append(queue, g.implementing(tn)...)
		}
	}

	var out []string
	for _, obj := range decls {
		if !reach[obj] {
			out = append(out, reachName(obj))
		}
	}
	sort.Strings(out)
	return out
}

// exportedAPI returns a facade package's exported names plus every
// exported method, promoted ones included, of each module type a user
// can get hold of through them: the types the facade names, aliases or
// mentions in a signature, an exported field or an element type, and so
// on transitively.
func exportedAPI(pkg *types.Package) []types.Object {
	var out []types.Object
	seen := map[*types.Named]bool{}
	var expose func(types.Type)
	expose = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if seen[t] || t.Obj().Pkg() == nil || !inModule(t.Obj().Pkg().Path()) {
				return
			}
			seen[t] = true
			out = append(out, t.Obj())
			ms := types.NewMethodSet(types.NewPointer(t))
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj(); m.Exported() {
					out = append(out, canon(m))
					expose(m.Type())
				}
			}
			expose(t.Underlying())
		case *types.Pointer:
			expose(t.Elem())
		case *types.Slice:
			expose(t.Elem())
		case *types.Array:
			expose(t.Elem())
		case *types.Chan:
			expose(t.Elem())
		case *types.Map:
			expose(t.Key())
			expose(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					expose(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					expose(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				expose(t.Method(i).Type())
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			out = append(out, obj)
			expose(obj.Type())
		}
	}
	return out
}

func (g *reachGraph) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		g.ifaces[m.Name()] = append(g.ifaces[m.Name()], m.Type().(*types.Signature))
	}
}

// generic reports whether a signature mentions a type parameter. Such a
// method is matched by name alone: its instantiations are not recorded.
func generic(sig *types.Signature) bool {
	var has func(types.Type) bool
	has = func(t types.Type) bool {
		switch t := t.(type) {
		case *types.TypeParam:
			return true
		case *types.Pointer:
			return has(t.Elem())
		case *types.Slice:
			return has(t.Elem())
		case *types.Array:
			return has(t.Elem())
		case *types.Chan:
			return has(t.Elem())
		case *types.Map:
			return has(t.Key()) || has(t.Elem())
		case *types.Signature:
			return generic(t)
		case *types.Named:
			for i := 0; i < t.TypeArgs().Len(); i++ {
				if has(t.TypeArgs().At(i)) {
					return true
				}
			}
		}
		return false
	}
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			if has(tup.At(i).Type()) {
				return true
			}
		}
	}
	return false
}

// addStdIfaces records the interfaces every std package the module
// imports, directly or not, declares at package level.
func (g *reachGraph) addStdIfaces(l *reachLoader) {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !inModule(p.Path()) {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					g.addIface(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
	}
	g.addIface(types.Universe.Lookup("error").Type())
}

// implementing returns the methods of tn that implement some interface
// method: same name, identical signature.
func (g *reachGraph) implementing(tn *types.TypeName) []types.Object {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	var out []types.Object
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		for _, sig := range g.ifaces[m.Name()] {
			if generic(sig) || generic(m.Type().(*types.Signature)) || types.Identical(m.Type(), sig) {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// reachName is "<import path>.<name>", with the receiver type's name
// between the two for a method.
func reachName(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Path() + "." + name
}
