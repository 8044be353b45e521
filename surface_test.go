package satwatch

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The surface tests hold the north star's "nothing without a caller" in
// tier-1: every identifier under internal/, every field of a Config and
// every CLI flag must have a reader outside the tests, or an allow-list
// entry whose reason still holds. They type-check the module from source
// with go/types, so a use is resolved to the object it names: exact for
// methods, where matching by name is not.

// checked is one type-checked package: the non-test files of a directory,
// the same files with its in-package tests, or its external test package.
type checked struct {
	path  string // import path; "<path>_test" for an external test package
	tests bool   // built with test files; its non-test uses repeat the plain check's
	bench bool   // the benchmark module, parsed read-only
	files []*ast.File
	info  *types.Info
}

// module is every package of the module, and of benchmark/, type-checked
// once per test binary.
type module struct {
	fset      *token.FileSet
	plain     map[string]*types.Package // import path → its non-test package
	checks    []*checked
	fieldKeys map[*types.Var]string // every field of a Config struct → "<path>.Config.Field"
}

var (
	loadOnce   sync.Once
	loaded     *module
	loadErrors []string
)

// loadModule type-checks every directory of the module that holds Go
// files, then benchmark/ against it. The standard library is checked from
// source too, so the test needs no export data and no network.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() {
		// With cgo on, the source importer runs the cgo tool for net and
		// os/user; the pure-Go files declare the same API.
		build.Default.CgoEnabled = false
		m := &module{fset: token.NewFileSet(), plain: map[string]*types.Package{}}
		std := importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
		dirs := map[string]*build.Package{}
		var imp importerFunc
		check := func(path string, tests, bench bool, dir string, names []string) *types.Package {
			c := &checked{path: path, tests: tests, bench: bench, info: &types.Info{
				Defs: map[*ast.Ident]types.Object{},
				Uses: map[*ast.Ident]types.Object{},
			}}
			for _, name := range names {
				f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
				if err != nil {
					loadErrors = append(loadErrors, err.Error())
					continue
				}
				c.files = append(c.files, f)
			}
			conf := types.Config{Importer: imp, Error: func(err error) {
				loadErrors = append(loadErrors, err.Error())
			}}
			pkg, _ := conf.Check(path, m.fset, c.files, c.info)
			m.checks = append(m.checks, c)
			return pkg
		}
		imp = func(path string) (*types.Package, error) {
			if path != "satwatch" && !strings.HasPrefix(path, "satwatch/") {
				return std.ImportFrom(path, "", 0)
			}
			if pkg := m.plain[path]; pkg != nil {
				return pkg, nil
			}
			bp := dirs[path]
			if bp == nil {
				return nil, os.ErrNotExist
			}
			pkg := check(path, false, false, bp.Dir, bp.GoFiles)
			m.plain[path] = pkg
			return pkg, nil
		}
		err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "benchmark") {
				return filepath.SkipDir
			}
			bp, err := build.ImportDir(dir, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			if err != nil {
				return err
			}
			dirs[filepath.ToSlash(filepath.Join("satwatch", dir))] = bp
			return nil
		})
		if err != nil {
			loadErrors = append(loadErrors, err.Error())
		}
		paths := make([]string, 0, len(dirs))
		for path := range dirs {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			if _, err := imp(path); err != nil {
				loadErrors = append(loadErrors, err.Error())
			}
		}
		for _, path := range paths {
			bp := dirs[path]
			if len(bp.TestGoFiles) > 0 {
				withTests := check(path, true, false, bp.Dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...))
				if len(bp.XTestGoFiles) > 0 {
					// The external tests see the package with its in-package
					// test files, as go test builds it.
					plain := m.plain[path]
					m.plain[path] = withTests
					check(path+"_test", true, false, bp.Dir, bp.XTestGoFiles)
					m.plain[path] = plain
				}
			} else if len(bp.XTestGoFiles) > 0 {
				check(path+"_test", true, false, bp.Dir, bp.XTestGoFiles)
			}
		}
		bp, err := build.ImportDir("benchmark", 0)
		if err != nil {
			loadErrors = append(loadErrors, err.Error())
		} else {
			check("satwatch/benchmark", false, true, bp.Dir, bp.GoFiles)
		}
		m.fieldKeys = map[*types.Var]string{}
		for _, c := range m.checks {
			for _, obj := range c.info.Defs {
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.Name() != "Config" || tn.Parent() != tn.Pkg().Scope() {
					continue
				}
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						m.fieldKeys[st.Field(i)] = tn.Pkg().Path() + ".Config." + st.Field(i).Name()
					}
				}
			}
		}
		loaded = m
	})
	for _, e := range loadErrors {
		t.Error(e)
	}
	if len(loadErrors) > 0 {
		t.FailNow()
	}
	return loaded
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// isTestFile reports whether pos lies in a _test.go file.
func (m *module) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(m.fset.Position(pos).Filename, "_test.go")
}

// key names obj the same way in every check of its package: "<path>.Name"
// for a package-level object, "<path>.Type.Name" for a method or a Config
// field. It is "" for anything else.
func (m *module) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	case *types.Var:
		if o.IsField() {
			return m.fieldKeys[o.Origin()]
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// decl is one declaration of the universe: its object in the non-test
// package, and the extent of its declaration, whose own uses of the
// object (recursion) are no callers.
type decl struct {
	obj  types.Object
	node ast.Node
}

// declared returns every package-level identifier and every method of a
// named type that the non-test files under internal/ declare, by key.
func (m *module) declared() map[string]decl {
	out := map[string]decl{}
	add := func(c *checked, id *ast.Ident, node ast.Node) {
		if obj := c.info.Defs[id]; obj != nil && id.Name != "_" && id.Name != "init" {
			out[m.key(obj)] = decl{obj, node}
		}
	}
	for _, c := range m.checks {
		if c.tests || c.bench || !strings.HasPrefix(c.path, "satwatch/internal/") {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(c, d.Name, d)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(c, s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(c, id, s)
							}
						}
					}
				}
			}
		}
	}
	delete(out, "")
	return out
}

// users records where an object is named from.
type users struct {
	code  map[string]bool // packages whose non-test code names it
	tests map[string]bool // packages whose tests name it (external tests as their package)
	bench bool            // benchmark/'s code names it
}

// besides reports whether pkgs holds a package other than pkg.
func besides(pkgs map[string]bool, pkg string) bool {
	for p := range pkgs {
		if p != pkg {
			return true
		}
	}
	return false
}

// usersByKey maps a key to where its object is named from.
type usersByKey map[string]*users

// of returns the users of k; none when nothing names it.
func (us usersByKey) of(k string) *users {
	if u := us[k]; u != nil {
		return u
	}
	return &users{}
}

// users resolves every use in every check to its key. A use inside the
// object's own declaration does not count.
func (m *module) users(decls map[string]decl) usersByKey {
	out := usersByKey{}
	for _, c := range m.checks {
		pkg := strings.TrimSuffix(c.path, "_test")
		for id, obj := range c.info.Uses {
			k := m.key(obj)
			if k == "" {
				continue
			}
			if d, ok := decls[k]; ok && id.Pos() >= d.node.Pos() && id.Pos() < d.node.End() {
				continue
			}
			test := m.isTestFile(id.Pos())
			if c.tests && !test {
				continue
			}
			u := out[k]
			if u == nil {
				u = &users{code: map[string]bool{}, tests: map[string]bool{}}
				out[k] = u
			}
			switch {
			case c.bench:
				u.bench = true
			case test:
				u.tests[pkg] = true
			default:
				u.code[pkg] = true
			}
		}
	}
	return out
}

// satisfying returns the keys of the methods through which a named type
// of the module implements an interface that the module or a standard
// library package it reaches declares: a call through the interface is
// invisible to Uses. A method promoted from an embedded type counts for
// the type that declares it.
func (m *module) satisfying() map[string]bool {
	var ifaces []*types.Interface
	var named []types.Type
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 && n.TypeParams().Len() == 0 {
					ifaces = append(ifaces, it)
				}
				continue
			}
			if !strings.HasPrefix(p.Path(), "satwatch/") {
				continue
			}
			t := types.Type(n)
			if tps := n.TypeParams(); tps.Len() > 0 {
				// A generic type stands in for its instances: instantiate
				// it with its own type parameters.
				args := make([]types.Type, tps.Len())
				for i := range args {
					args[i] = tps.At(i)
				}
				t, _ = types.Instantiate(nil, n, args, false)
			}
			named = append(named, t, types.NewPointer(t))
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range m.plain {
		walk(p)
	}
	out := map[string]bool{}
	for _, t := range named {
		for _, it := range ifaces {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				fn := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, false, fn.Pkg(), fn.Name()); obj != nil {
					out[m.key(obj)] = true
				}
			}
		}
	}
	return out
}

// reason is why an identifier or a Config field with no non-test caller
// in the module may stay. The set is closed.
type reason int

const (
	benchCaller reason = iota + 1 // benchmark/ names it; ROADMAP item 4(c) retires those callers
	testOracle                    // another package's tests read through it
	wireValue                     // its position in an iota block fixes a wire value
)

// uncalled is the export allow-list. It may only shrink: an entry whose
// identifier gains a caller, or loses the caller its reason names, fails.
var uncalled = map[string]reason{
	"internal/bench.Environment":         benchCaller,
	"internal/dist.Rand.Shuffle":         benchCaller,
	"internal/mac.Model.QuantileUplink":  benchCaller,
	"internal/mac.Model.SampleUplink":    benchCaller,
	"internal/pepmodel.Model.SetupDelay": benchCaller,
	"internal/phy.ChannelFor":            benchCaller,
	"internal/shaper.ForPlan":            benchCaller,
	"internal/shaper.TokenBucket.Take":   benchCaller,
	"internal/trace.ReadFiles":           benchCaller,
	"internal/tstat.ReadDNS":             benchCaller,
	"internal/tstat.ReadFlows":           benchCaller,
	"internal/analytics.Sample.Mean":     testOracle, // Figure 5's heavy-hitter check compares means
	"internal/dist.Diurnal.Intensity":    testOracle, // workload pins the archetype tables
	"internal/dist.Diurnal.PeakHour":     testOracle, // workload pins the archetype tables
	"internal/mac.Model.Params":          testOracle, // netsim checks which model a worker runs
	"internal/obs.Counter.Value":         testOracle, // TestEveryMetricHasAReader counts it as a reader
	"internal/prof.StageLabels":          testOracle, // TestDesignDocCoversStageLabels walks it
	"internal/trace.Read":                testOracle, // netsim reads back the traces it writes
	"internal/tunnel.frameOpenAck":       wireValue,
}

// TestEveryExportHasACaller fails on a package-level identifier or a
// method under internal/, exported or not, that no non-test code of the
// module names outside its own declaration. A method through which its
// type implements an interface counts as called. Delete what it flags, or
// move it into a _test.go file when its package's tests use it as a
// reference.
func TestEveryExportHasACaller(t *testing.T) {
	m := loadModule(t)
	decls := m.declared()
	us := m.users(decls)
	sat := m.satisfying()
	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if sat[k] || len(us.of(k).code) > 0 {
			continue
		}
		if _, ok := uncalled[strings.TrimPrefix(k, "satwatch/")]; !ok {
			t.Errorf("%s has no caller outside the tests: delete it, or move it into a _test.go file", k)
		}
	}
	for name, why := range uncalled {
		k := "satwatch/" + name
		d, ok := decls[k]
		u := us.of(k)
		switch {
		case !ok:
			t.Errorf("allow-list entry %s names nothing: remove it", name)
		case sat[k] || len(u.code) > 0:
			t.Errorf("allow-list entry %s has a caller now: remove it", name)
		case why == benchCaller && !u.bench:
			t.Errorf("allow-list entry %s: benchmark/ no longer names it", name)
		case why == testOracle && !besides(u.tests, d.obj.Pkg().Path()):
			t.Errorf("allow-list entry %s: no other package's test reads it", name)
		case why == wireValue && !implicitConst(d):
			t.Errorf("allow-list entry %s: not a constant that repeats an iota expression", name)
		}
	}
}

// implicitConst reports whether d declares a constant with no value of
// its own: one that repeats the iota expression of the line before.
func implicitConst(d decl) bool {
	spec, ok := d.node.(*ast.ValueSpec)
	_, isConst := d.obj.(*types.Const)
	return ok && isConst && len(spec.Values) == 0
}

// benchSet lists the Config fields whose one setter outside their package
// is benchmark/; ROADMAP item 4(c) retires those setters. The list may
// only shrink.
var benchSet = []string{
	"internal/live.Config.RecordDepth",
	"internal/live.Config.WorkerDepth",
	"internal/netsim.Config.MAC",
}

// TestEveryConfigFieldHasASetter fails on an exported field of a type
// named Config under internal/ that no non-test code outside its package
// names. A field with one value in use is a constant.
func TestEveryConfigFieldHasASetter(t *testing.T) {
	m := loadModule(t)
	us := m.users(nil)
	fields := map[string]bool{}
	for _, k := range m.fieldKeys {
		if strings.HasPrefix(k, "satwatch/internal/") && token.IsExported(k[strings.LastIndex(k, ".")+1:]) {
			fields[k] = true
		}
	}
	setOutside := func(k string) bool { return besides(us.of(k).code, k[:strings.Index(k, ".Config.")]) }
	for k := range fields {
		if !setOutside(k) && !slices.Contains(benchSet, strings.TrimPrefix(k, "satwatch/")) {
			t.Errorf("%s is set by no non-test code outside its package: make it a constant", k)
		}
	}
	for _, name := range benchSet {
		k := "satwatch/" + name
		switch {
		case !fields[k]:
			t.Errorf("allow-list entry %s names no Config field: remove it", name)
		case setOutside(k):
			t.Errorf("allow-list entry %s has a setter now: remove it", name)
		case !us.of(k).bench:
			t.Errorf("allow-list entry %s: benchmark/ no longer names it", name)
		}
	}
}

// deploymentFlags are flags that name where a CLI runs or writes, not how
// it behaves, so no walkthrough needs to set them.
var deploymentFlags = map[cliFlag]string{
	{"satpep", "listen"}: "an address",
}

// TestEveryFlagHasAReader fails on a flag of a CLI under cmd/ that no CI
// step, user document (README, DESIGN, OBSERVABILITY, EXPERIMENTS, AUDIT)
// or example names. CHANGES and ROADMAP are ledgers and do not count. A
// flag is matched by name, so one tool's reader covers another tool's
// flag of the same name.
func TestEveryFlagHasAReader(t *testing.T) {
	m := loadModule(t)
	var corpus strings.Builder
	for _, name := range []string{".github/workflows/ci.yml", "README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md", "AUDIT.md"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		corpus.Write(b)
	}
	err := filepath.WalkDir("examples", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		corpus.Write(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)(?:^|[^\w-])-([a-z][a-z0-9-]*)`).FindAllStringSubmatch(corpus.String(), -1) {
		named[m[1]] = true
	}
	flags := m.flags()
	if len(flags) == 0 {
		t.Fatal("found no flags under cmd/")
	}
	defined := map[cliFlag]bool{}
	for _, f := range flags {
		defined[f] = true
		if _, ok := deploymentFlags[f]; !ok && !named[f.name] {
			t.Errorf("%s -%s is named by no CI step, doc or example: delete it, or show it in use", f.tool, f.name)
		}
	}
	for f := range deploymentFlags {
		switch {
		case !defined[f]:
			t.Errorf("allow-list entry %s -%s names no flag: remove it", f.tool, f.name)
		case named[f.name]:
			t.Errorf("allow-list entry %s -%s has a reader now: remove it", f.tool, f.name)
		}
	}
}

// docOnlyFlags are the flags a user document may show in a code span
// though no CLI under cmd/ defines them.
var docOnlyFlags = map[string]string{
	"race": "the go tool's race detector",
}

// TestEveryDocumentedFlagExists is TestEveryFlagHasAReader's reverse: a
// code span that opens with -name in README, DESIGN, OBSERVABILITY or
// EXPERIMENTS names a flag of some CLI under cmd/. Fenced blocks are
// left out and spans pair left to right, so the closing backtick of
// "`probe`-segment" opens nothing.
func TestEveryDocumentedFlagExists(t *testing.T) {
	m := loadModule(t)
	defined := map[string]bool{}
	for _, f := range m.flags() {
		defined[f.name] = true
	}
	fence := regexp.MustCompile("(?ms)^[ \t]*```.*?^[ \t]*```")
	span := regexp.MustCompile("`([^`]+)`")
	opens := regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	named := map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "OBSERVABILITY.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllStringSubmatch(fence.ReplaceAllString(string(b), ""), -1) {
			f := opens.FindStringSubmatch(s[1])
			if f == nil {
				continue
			}
			named[f[1]] = true
			if _, ok := docOnlyFlags[f[1]]; !ok && !defined[f[1]] {
				t.Errorf("%s names `-%s`, which no CLI under cmd/ defines", doc, f[1])
			}
		}
	}
	for name := range docOnlyFlags {
		switch {
		case defined[name]:
			t.Errorf("allow-list entry -%s is a CLI flag now: remove it", name)
		case !named[name]:
			t.Errorf("allow-list entry -%s is named by no document: remove it", name)
		}
	}
}

// cliFlag is one command-line flag a CLI under cmd/ defines.
type cliFlag struct{ tool, name string }

// flagDefiners are the flag package's functions and FlagSet methods that
// define a flag, by the index of their name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0,
	"Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1,
	"StringVar": 1, "TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

// flags returns every flag the CLIs define through the flag package.
func (m *module) flags() []cliFlag {
	var out []cliFlag
	for _, c := range m.checks {
		if c.tests || !strings.HasPrefix(c.path, "satwatch/cmd/") {
			continue
		}
		tool := strings.TrimPrefix(c.path, "satwatch/cmd/")
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := c.info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				if arg, ok := flagDefiners[fn.Name()]; ok && arg < len(call.Args) {
					if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						out = append(out, cliFlag{tool, name})
					}
				}
				return true
			})
		}
	}
	return out
}

// TestDesignInventoryNamesEveryPackage holds DESIGN.md §2 to what it
// claims, "every module we build": its tables name exactly the module's
// packages, the set `go list ./...` reports.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	m := loadModule(t)
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec2, ok := strings.Cut(string(doc), "\n## 2. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 2")
	}
	sec2, _, _ = strings.Cut(sec2, "\n## ")
	rows := map[string]bool{}
	for _, r := range regexp.MustCompile("(?m)^\\| `([a-z0-9/]+)`").FindAllStringSubmatch(sec2, -1) {
		path := "satwatch"
		if r[1] != path {
			path += "/" + r[1]
		}
		rows[path] = true
		if m.plain[path] == nil {
			t.Errorf("DESIGN.md §2 has a row for %s, which is not a package of the module", path)
		}
	}
	for path := range m.plain {
		if !rows[path] {
			t.Errorf("%s has no row in DESIGN.md §2", path)
		}
	}
}
