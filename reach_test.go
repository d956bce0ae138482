package pimassembler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist holds the identifiers the gate flags that stay anyway, each
// with the test or benchmark it serves. Keys are finding IDs: the package
// path below internal/, a dot, then the name (Type.Method for a method).
var reachAllowlist = map[string]string{
	// Oracles and helpers of tests in other packages, which cannot move
	// into a _test.go file.
	"bitvec.Vector.Equal":         "row comparison of subarray's row-operation tests (TestWriteRead, TestTwoRowXNOR, TestCarrySave3, ...) and fault's TestZeroRateIsTransparent and TestMechanismSpecificRates",
	"circuit.SenseAmp.SenseCarry": "analog oracle subarray/verify_test.go checks TRACarry and BitSerialAdd against",
	"circuit.SenseAmp.SenseSum":   "analog oracle subarray/verify_test.go checks SumWithLatch and BitSerialAdd against",
	"circuit.SenseAmp.SetLatch":   "loads the carry for subarray/verify_test.go's analog full adder",
	"debruijn.Graph.FleuryPath":   "the paper's reference walk: TestFleuryMatchesHierholzer, TestDenseFleuryMatchesMapEuler and assembly's TestAssembleFleuryOnSmallInput",
	"exec.Stream.Commands":        "the command list core's TestSummarizeMatchesPerCommandWalk hands its per-command oracle and assembly's TestCommandStreamReproducible compares",
	"genome.Sequence.Append":      "builds metrics_test's chimeric contigs and debruijn's cyclic fixtures (contig_walk_test, mapref_test)",
	"genome.TilingReads":          "exact-coverage reads of assembly's TestAssembleReconstructsCleanGenome and TestMeasuredCountsConsistent, core's TestHashTableMatchesSoftwareReference, debruijn's TestSimplifyPreservesCleanGraph and kmer's TestSpectrumSumsToDistinct",
	"kmer.CountTable.Add":         "builds the k-mer-by-k-mer reference tables of core, debruijn, correct and perfmodel tests",
	"kmer.MustParse":              "k-mer literals of core, debruijn and perfmodel tests",
	"platforms.ByName":            "platform lookup of perfmodel's costOf and TestMBRShape and of platforms' ratio tests",
	"sched.ScheduleStages":        "per-stage oracle of core's TestSummarizeMatchesPerCommandWalk and the canonical stage schedules engine's TestGoldenSimulatedStatistics pins",
	"service.Client.Metrics":      "scrapes /metrics for cmd/assembled's TestDaemonServesAndDrains and TestRealBinaryService",
	"stats.RNG.Perm":              "shuffles the contigs of assembly's mate-pair scaffolding tests (cutContigs)",
	"subarray.Subarray.Peek":      "unmetered row introspection of fault, core and assembly tests",
	"subarray.Subarray.Poke":      "unmetered row setup of fault tests and ablation_test.go's benchmarks",

	// Paper-facing models pinned against the paper.
	"circuit.Enables":              "Fig. 2a's enable-signal table, pinned by TestEnablesMatchPaperTable",
	"circuit.SenseAmp.SenseMemory": "Fig. 2a's W/R mode on the analog model, pinned by TestSenseMemoryReadsStoredValue",
}

// TestReach is the repository's reachability gate, in two halves.
//
// Packages: every internal/ package is in the dependency closure of a
// command (./cmd/...) or of the bench/ module. Tests and examples do not
// count, in either half: an example shows code off, it is no reason to keep
// it.
//
// Identifiers: every exported package-level name under internal/, and every
// exported method of a named type declared there, is referenced from a
// non-test file of either module, examples excluded; every unexported
// package-level name is referenced from a non-test file of its own package.
// A method called through an interface counts as used on every type whose
// method set has all of that interface's method names, and String() string
// and Error() string are exempt, since fmt and errors call them.
//
// Anything else fails unless reachAllowlist names it with a reason.
func TestReach(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to list packages with")
	}
	found, err := unreached(goTool, ".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, f := range found {
		flagged[f.id] = true
		if _, ok := reachAllowlist[f.id]; !ok {
			t.Errorf("%s: %s", f.id, f.why)
		}
	}
	for id := range reachAllowlist {
		if !flagged[id] {
			t.Errorf("%s: allowlisted, but not flagged any more: drop the entry", id)
		}
	}
}

// TestReachFixture pins that the gate can fail: testdata/reach is a module
// holding one dead export, one export only its test uses, one only an
// example uses, a method called only through an anonymous interface, one
// called only through a named interface of another package, and a String
// method. Only the first three may be reported.
func TestReachFixture(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH to list packages with")
	}
	found, err := unreached(goTool, filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.id)
	}
	want := []string{"lib.Dead", "lib.ExampleOnly", "lib.TestOnly"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

type finding struct{ id, why string }

// listedPackage is the part of `go list -json` output the gate reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Deps       []string
	Module     *struct {
		Path string
		Main bool
	}
}

// checkedPackage is one first-party package type-checked from its non-test
// files.
type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// unreached runs the gate over the module in dirs[0], whose commands are
// the package roots, and the modules in dirs[1:], each package of which is
// a root. It returns the findings sorted by ID.
func unreached(goTool string, dirs ...string) ([]finding, error) {
	fset := token.NewFileSet()
	var module string
	var checked []*checkedPackage
	reached := map[string]bool{}
	for i, dir := range dirs {
		pkgs, err := goList(goTool, dir)
		if err != nil {
			return nil, err
		}
		exports := map[string]string{}
		for _, p := range pkgs {
			exports[p.ImportPath] = p.Export
		}
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(exports[path])
		})
		for _, p := range pkgs {
			if i > 0 {
				reached[p.ImportPath] = true
			}
			if p.Module == nil || !p.Module.Main {
				continue
			}
			if i == 0 {
				module = p.Module.Path
				if within(p.ImportPath, module+"/cmd") {
					reached[p.ImportPath] = true
					for _, d := range p.Deps {
						reached[d] = true
					}
				}
			}
			if len(p.GoFiles) == 0 || within(p.ImportPath, module+"/examples") {
				continue
			}
			cp, err := typeCheck(fset, imp, p)
			if err != nil {
				return nil, err
			}
			checked = append(checked, cp)
		}
	}

	internal := module + "/internal"
	used := references(checked)
	var found []finding
	for _, cp := range checked {
		path := cp.pkg.Path()
		if !within(path, internal) {
			continue
		}
		short := strings.TrimPrefix(path, internal+"/")
		if !reached[path] {
			found = append(found, finding{short, "package imported by no command or benchmark"})
		}
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name != "_" && !used[objectKey(obj)] {
				why := "unexported, and referenced by no non-test file of its package"
				if obj.Exported() {
					why = "referenced only by tests, or by nothing"
				}
				found = append(found, finding{short + "." + name, why})
			}
			named, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !isType || !ok {
				continue
			}
			for m := range named.NumMethods() {
				fn := named.Method(m)
				if fn.Exported() && !stringerShape(fn) && !used[objectKey(fn)] {
					found = append(found, finding{short + "." + name + "." + fn.Name(), "method referenced only by tests, or by nothing"})
				}
			}
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].id < found[j].id })
	return found, nil
}

// goList lists the packages of the module in dir and everything they
// import, with export data for each.
func goList(goTool, dir string) ([]*listedPackage, error) {
	cmd := exec.Command(goTool, "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

func typeCheck(fset *token.FileSet, imp types.Importer, p *listedPackage) (*checkedPackage, error) {
	cp := &checkedPackage{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		cp.files = append(cp.files, f)
	}
	var err error
	cp.pkg, err = (&types.Config{Importer: imp}).Check(p.ImportPath, fset, cp.files, cp.info)
	return cp, err
}

// references returns the keys of every package-level object and concrete
// method that a checked file references from outside that object's own
// declaration (a type's own methods do not count for the type). A method
// counts as referenced when it is called through an interface that a type
// has every method name of, and when a value of its type is converted to an
// interface that names it: that is how fmt, sort or os/exec reach a method
// no first-party file calls.
func references(checked []*checkedPackage) map[string]bool {
	used := map[string]bool{}
	called := map[string][]string{} // method-name sets of the interfaces called through
	for _, cp := range checked {
		info := cp.info
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				own := declaredBy(info, decl)
				var stack []ast.Node
				ast.Inspect(decl, func(n ast.Node) bool {
					if n == nil {
						stack = stack[:len(stack)-1]
						return true
					}
					stack = append(stack, n)
					markConversions(used, info, n, stack)
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := info.Uses[id]
					if obj == nil || obj.Pkg() == nil || own[obj] {
						return true
					}
					fn, isFunc := obj.(*types.Func)
					if isFunc {
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							names := methodNames(recv.Type().Underlying().(*types.Interface))
							called[strings.Join(names, " ")] = names
							return true
						}
					}
					if (isFunc && receiverNamed(fn) != nil) || obj.Pkg().Scope().Lookup(obj.Name()) == obj {
						used[objectKey(obj)] = true
					}
					return true
				})
			}
		}
	}
	for _, cp := range checked {
		scope := cp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			mset := types.NewMethodSet(types.NewPointer(tn.Type()))
			has := map[string]bool{}
			for m := range mset.Len() {
				has[mset.At(m).Obj().Name()] = true
			}
			for _, names := range called {
				if !hasAll(has, names) {
					continue
				}
				for m := range mset.Len() {
					if obj := mset.At(m).Obj(); slices.Contains(names, obj.Name()) {
						used[objectKey(obj)] = true
					}
				}
			}
		}
	}
	return used
}

// markConversions applies markConverted to every implicit or explicit
// conversion node n makes: call arguments, assignments, typed declarations,
// composite-literal elements, returns and channel sends. stack is the path
// from the declaration down to n, for a return's signature.
func markConversions(used map[string]bool, info *types.Info, n ast.Node, stack []ast.Node) {
	pair := func(to types.Type, from ast.Expr) {
		if to != nil && info.TypeOf(from) != nil {
			markConverted(used, to, info.TypeOf(from))
		}
	}
	switch n := n.(type) {
	case *ast.CallExpr:
		tv := info.Types[n.Fun]
		if tv.IsType() {
			pair(tv.Type, n.Args[0])
			break
		}
		if tv.Type == nil {
			break
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			break
		}
		params := sig.Params()
		for i, arg := range n.Args {
			switch {
			case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
				pair(params.At(i).Type(), arg)
			case sig.Variadic() && !n.Ellipsis.IsValid():
				pair(params.At(params.Len()-1).Type().(*types.Slice).Elem(), arg)
			}
		}
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
			for i, lhs := range n.Lhs {
				pair(info.TypeOf(lhs), n.Rhs[i])
			}
		}
	case *ast.ValueSpec:
		if n.Type != nil {
			for _, v := range n.Values {
				pair(info.TypeOf(n.Type), v)
			}
		}
	case *ast.CompositeLit:
		t := info.TypeOf(n)
		if t == nil {
			break
		}
		for i, el := range n.Elts {
			kv, keyed := el.(*ast.KeyValueExpr)
			if keyed {
				el = kv.Value
			}
			switch u := t.Underlying().(type) {
			case *types.Struct:
				if keyed {
					pair(info.Uses[kv.Key.(*ast.Ident)].Type(), el)
				} else {
					pair(u.Field(i).Type(), el)
				}
			case *types.Slice:
				pair(u.Elem(), el)
			case *types.Array:
				pair(u.Elem(), el)
			case *types.Map:
				pair(u.Elem(), el)
			}
		}
	case *ast.SendStmt:
		if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
			pair(ch.Elem(), n.Value)
		}
	case *ast.ReturnStmt:
		for i := len(stack) - 1; i >= 0; i-- {
			var sig *types.Signature
			switch fn := stack[i].(type) {
			case *ast.FuncLit:
				sig = info.TypeOf(fn).(*types.Signature)
			case *ast.FuncDecl:
				sig = info.Defs[fn.Name].Type().(*types.Signature)
			default:
				continue
			}
			if sig.Results().Len() == len(n.Results) {
				for j, r := range n.Results {
					pair(sig.Results().At(j).Type(), r)
				}
			}
			break
		}
	}
}

// markConverted marks the methods of interface to on the concrete type from.
func markConverted(used map[string]bool, to, from types.Type) {
	it, ok := to.Underlying().(*types.Interface)
	if !ok || types.IsInterface(from) {
		return
	}
	mset := types.NewMethodSet(from)
	names := methodNames(it)
	for m := range mset.Len() {
		if obj := mset.At(m).Obj(); slices.Contains(names, obj.Name()) {
			used[objectKey(obj)] = true
		}
	}
}

// methodNames returns the sorted method names of an interface.
func methodNames(it *types.Interface) []string {
	var names []string
	for m := range it.NumMethods() {
		names = append(names, it.Method(m).Name())
	}
	sort.Strings(names)
	return names
}

// declaredBy returns the objects a top-level declaration declares, plus, for
// a method, its receiver's type: references inside a declaration do not keep
// the declaration itself alive.
func declaredBy(info *types.Info, decl ast.Decl) map[types.Object]bool {
	own := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil {
			if recv := receiverNamed(info.Defs[d.Name].(*types.Func)); recv != nil {
				own[recv.Obj()] = true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, n := range s.Names {
					own[info.Defs[n]] = true
				}
			}
		}
	}
	return own
}

// objectKey names a package-level object by package path and name, and a
// method by package path, receiver type name and name, so that an object
// read from export data and the same object checked from source share a key.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := receiverNamed(fn); recv != nil {
			return recv.Obj().Pkg().Path() + "." + recv.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// stringerShape reports a String() string or Error() string method.
func stringerShape(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if (fn.Name() != "String" && fn.Name() != "Error") || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().(*types.Basic)
	return ok && b.Kind() == types.String
}

func within(path, dir string) bool {
	return path == dir || strings.HasPrefix(path, dir+"/")
}

func hasAll(has map[string]bool, names []string) bool {
	for _, n := range names {
		if !has[n] {
			return false
		}
	}
	return true
}
