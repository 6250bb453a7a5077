package repro

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
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The reachability ratchet. Every non-test declaration outside benchmark/
// must be reached from a program: a main, an init, a package-level var
// initialiser, or any declaration under benchmark/, examples/ or cmd/.
// Code that only tests call is a second copy of something or a capability
// nobody uses; the linker drops it from the binaries, but readers still
// have to read it. A declaration that must stay anyway goes in
// reachAllowlist with the reason.

// reachRoots are the module-relative directories whose every declaration
// counts as reached.
var reachRoots = []string{"benchmark", "examples", "cmd"}

// reachAllowlist maps a declaration, named as the report names it, to the
// reason it stays although no program reaches it.
var reachAllowlist = map[string]string{
	"internal/pq.Quantizer.Decode": "encode-error oracle: pq tests measure Encode's reconstruction error with it",
	"internal/cooc.Table.Decode":   "CAE round-trip oracle: cooc tests decode re-encoded addresses back to the PQ code",
	"internal/cooc.Table.SlotSums": "CAE host reference: cooc tests check re-encoded distances against QDistance with it",
	"internal/cooc.Table.Distance": "CAE host reference: cooc tests check re-encoded distances against QDistance with it",
}

// reachInterfaceMethods are methods the standard library or the runtime
// calls through an interface that the module's code never names (fmt,
// errors, encoding/json, sort, container/heap, io, net/http).
var reachInterfaceMethods = []string{
	"String", "Error", "Unwrap", "ServeHTTP", "Read", "Write", "Close", "ReadAt",
	"MarshalJSON", "UnmarshalJSON", "Len", "Less", "Swap", "Push", "Pop",
}

func TestReachable(t *testing.T) {
	rep, err := scanUnreached(".", reachRoots, reachAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.unreached) > 0 {
		t.Errorf("%d declarations that no program reaches; delete them, move test "+
			"helpers into _test.go files, or allowlist them with a reason:\n\t%s",
			len(rep.unreached), strings.Join(rep.unreached, "\n\t"))
	}
	for _, name := range rep.stale {
		t.Errorf("reachAllowlist entry %s is reached or gone; remove it", name)
	}
}

// TestReachableSelfTest runs the scan over a small module whose answer is
// known, so that a broken rule fails here instead of passing silently.
func TestReachableSelfTest(t *testing.T) {
	rep, err := scanUnreached(filepath.Join("testdata", "reach"), []string{"cmd"}, map[string]string{
		"lib.Allowlisted": "allowlisted in the self-test",
		"lib.Reached":     "reached, so the entry is stale",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib.Square.Perimeter (lib/lib.go:21, 3 lines)",
		"lib.Unreached (lib/lib.go:10, 4 lines)",
		"lib.unusedLimit (lib/lib.go:33, 2 lines)",
	}
	if !reflect.DeepEqual(rep.unreached, want) {
		t.Errorf("unreached in testdata/reach:\n got %q\nwant %q", rep.unreached, want)
	}
	if want := []string{"lib.Reached"}; !reflect.DeepEqual(rep.stale, want) {
		t.Errorf("stale allowlist entries: got %q, want %q", rep.stale, want)
	}
}

// reachReport is the outcome of one scan.
type reachReport struct {
	// unreached lists, sorted, each declaration that neither a root nor
	// an allowlisted declaration reaches, as "pkgdir.Name (file:line, n
	// lines)"; n counts the doc comment.
	unreached []string
	// stale lists the allowlist entries that a root reaches or that name
	// no declaration.
	stale []string
}

// scanUnreached type-checks every non-test package of the module rooted
// at dir and reports the declarations no root reaches. Declarations are
// named by module-relative package directory, then the declared name
// ("internal/topk.Heap.Push"). Allowlisted declarations stay, so what
// they use counts as reached.
func scanUnreached(dir string, roots []string, allow map[string]string) (reachReport, error) {
	var rep reachReport
	l, err := newReachLoader(dir)
	if err != nil {
		return rep, err
	}
	for _, p := range l.pkgs {
		if _, err := l.check(p); err != nil {
			return rep, err
		}
	}
	g := newReachGraph(l, roots)
	g.run()
	kept := map[string]bool{}
	for obj, d := range g.decls {
		if _, ok := allow[d.name]; ok && !g.reached[obj] {
			kept[d.name] = true
			g.mark(obj)
		}
	}
	g.run()
	for name := range allow {
		if !kept[name] {
			rep.stale = append(rep.stale, name)
		}
	}
	sort.Strings(rep.stale)
	for obj, d := range g.decls {
		if g.reached[obj] {
			continue
		}
		start, end := l.fset.Position(d.start), l.fset.Position(d.end)
		file, err := filepath.Rel(l.root, start.Filename)
		if err != nil {
			return rep, err
		}
		rep.unreached = append(rep.unreached, fmt.Sprintf("%s (%s:%d, %d lines)",
			d.name, filepath.ToSlash(file), start.Line, end.Line-start.Line+1))
	}
	sort.Strings(rep.unreached)
	return rep, nil
}

// reachPkg is one non-test package of the scanned module.
type reachPkg struct {
	rel   string // module-relative directory, slash-separated; "." for the root
	path  string // import path
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// reachLoader parses the module's packages and type-checks them on
// demand; the standard library is type-checked from GOROOT source, which
// needs neither export data nor the network.
type reachLoader struct {
	fset *token.FileSet
	root string
	std  types.ImporterFrom
	pkgs map[string]*reachPkg // by import path
}

func newReachLoader(root string) (*reachLoader, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &reachLoader{fset: token.NewFileSet(), root: root, pkgs: map[string]*reachPkg{}}
	// The source importer reads build.Default. Without cgo it type-checks
	// the pure-Go variants (net, os/user) instead of invoking the C
	// toolchain.
	build.Default.CgoEnabled = false
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p := &reachPkg{rel: filepath.ToSlash(rel), dir: path}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(path, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		p.path = module
		if p.rel != "." {
			p.path += "/" + p.rel
		}
		l.pkgs[p.path] = p
		return nil
	})
	return l, err
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (l *reachLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return l.check(p)
	}
	return l.std.ImportFrom(path, dir, mode)
}

func (l *reachLoader) check(p *reachPkg) (*types.Package, error) {
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	abs, err := filepath.Abs(p.dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: importerAt{l, abs}}
	pkg, err := conf.Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p.rel, err)
	}
	p.types = pkg
	return pkg, nil
}

// importerAt resolves a package's imports relative to its directory, so
// that the standard library's vendored packages resolve.
type importerAt struct {
	l   *reachLoader
	dir string
}

func (i importerAt) Import(path string) (*types.Package, error) {
	return i.l.ImportFrom(path, i.dir, 0)
}

// reachDecl is one package-level declaration of the module.
type reachDecl struct {
	name  string
	pkg   *reachPkg
	node  ast.Node // walked when the declaration is reached
	start token.Pos
	end   token.Pos
	recv  *types.TypeName // receiver type, for methods
}

// reachGraph is the reference graph over the module's declarations.
type reachGraph struct {
	decls    map[types.Object]*reachDecl
	methods  []types.Object
	reached  map[types.Object]bool
	selected map[types.Object]bool // concrete methods some reached body selects
	iface    map[string]bool       // method names of reached interfaces
	work     []types.Object
}

func newReachGraph(l *reachLoader, roots []string) *reachGraph {
	g := &reachGraph{
		decls:    map[types.Object]*reachDecl{},
		reached:  map[types.Object]bool{},
		selected: map[types.Object]bool{},
		iface:    map[string]bool{},
	}
	for _, name := range reachInterfaceMethods {
		g.iface[name] = true
	}
	for _, p := range l.pkgs {
		isRoot := false
		for _, r := range roots {
			if p.rel == r || strings.HasPrefix(p.rel, r+"/") {
				isRoot = true
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, obj := range g.declare(p, decl) {
					if isRoot {
						g.mark(obj)
					}
				}
			}
		}
	}
	// Walk the roots only once every declaration is known, so that each
	// object they use finds its declaration.
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				g.walkRoots(p, decl)
			}
		}
	}
	return g
}

// declare records the objects decl declares and returns them.
func (g *reachGraph) declare(p *reachPkg, decl ast.Decl) []types.Object {
	var out []types.Object
	add := func(obj types.Object, name string, node ast.Node, doc *ast.CommentGroup, start, end token.Pos) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		if doc != nil {
			start = doc.Pos()
		}
		g.decls[obj] = &reachDecl{name: p.rel + "." + name, pkg: p, node: node, start: start, end: end}
		out = append(out, obj)
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		obj := p.info.Defs[d.Name]
		if d.Recv == nil {
			if d.Name.Name == "init" || (d.Name.Name == "main" && p.types.Name() == "main") {
				return nil
			}
			add(obj, d.Name.Name, d, d.Doc, d.Pos(), d.End())
			return out
		}
		recv := recvTypeName(obj)
		add(obj, recv.Name()+"."+d.Name.Name, d, d.Doc, d.Pos(), d.End())
		if len(out) > 0 {
			g.decls[obj].recv = recv
			g.methods = append(g.methods, obj)
		}
	case *ast.GenDecl:
		single := d.Lparen == token.NoPos
		for _, spec := range d.Specs {
			doc, start := d.Doc, d.Pos()
			if !single {
				start = spec.Pos()
			}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !single {
					doc = s.Doc
				}
				add(p.info.Defs[s.Name], s.Name.Name, s, doc, start, s.End())
			case *ast.ValueSpec:
				if !single {
					doc = s.Doc
				}
				for _, n := range s.Names {
					add(p.info.Defs[n], n.Name, s, doc, start, s.End())
				}
			}
		}
	}
	return out
}

func recvTypeName(obj types.Object) *types.TypeName {
	t := obj.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named).Obj()
}

// walkRoots walks what runs whether or not anything references it: init
// and main bodies, and package-level var initialisers.
func (g *reachGraph) walkRoots(p *reachPkg, decl ast.Decl) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && (d.Name.Name == "init" || (d.Name.Name == "main" && p.types.Name() == "main")) {
			g.walk(p, d)
		}
	case *ast.GenDecl:
		if d.Tok == token.VAR {
			for _, spec := range d.Specs {
				g.walk(p, spec)
			}
		}
	}
}

// mark records obj as reached.
func (g *reachGraph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			if types.IsInterface(recv.Type()) {
				g.iface[o.Name()] = true
			} else {
				g.selected[obj] = true
			}
		}
	case *types.Var:
		obj = o.Origin()
	case *types.TypeName:
		if it, ok := o.Type().Underlying().(*types.Interface); ok {
			g.addInterface(it)
		}
	}
	if g.reached[obj] {
		return
	}
	g.reached[obj] = true
	if g.decls[obj] != nil {
		g.work = append(g.work, obj)
	}
}

func (g *reachGraph) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		g.iface[it.Method(i).Name()] = true
	}
}

// walk marks every object node's identifiers use, and the methods of
// every interface literal in it.
func (g *reachGraph) walk(p *reachPkg, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := p.info.Uses[n]; obj != nil {
				g.mark(obj)
			}
		case *ast.InterfaceType:
			if it, ok := p.info.TypeOf(n).(*types.Interface); ok {
				g.addInterface(it)
			}
		}
		return true
	})
}

// run walks reached declarations until no method joins: a method is
// reached once its receiver type is, and a reached body selects it or a
// reached interface has its name.
func (g *reachGraph) run() {
	for {
		for len(g.work) > 0 {
			obj := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			d := g.decls[obj]
			g.walk(d.pkg, d.node)
		}
		for _, m := range g.methods {
			d := g.decls[m]
			if !g.reached[m] && g.reached[d.recv] && (g.selected[m] || g.iface[m.Name()]) {
				g.reached[m] = true
				g.work = append(g.work, m)
			}
		}
		if len(g.work) == 0 {
			return
		}
	}
}
