package malsched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of this module, the prefix every internal
// package's import path starts with.
const modulePath = "malsched"

// testOnlyAllowed lists the exported functions of internal/ that only tests
// outside their own file call, each kept on purpose.
var testOnlyAllowed = map[string]string{
	// A fixture: core, precedence and engine tests generate their
	// knapsack-heavy inputs from it.
	"internal/instance.KnapsackStress": "shared test fixture",
	// A fixture: non-monotone profiles for the tests of several packages.
	"internal/instance.NonMonotoneMixed": "shared test fixture",
	// The continuous lower bound: the lowerbound tests hold it against the
	// discrete bounds, and the experiment tables will build on it.
	"internal/lowerbound.ContinuousPM": "kept for the experiment tables",
	// The exact oracle's makespan form: the exact, solver and analysis
	// tests hold optimal makespans against it.
	"internal/exact.Solve": "test oracle",
	// The one allocation meter: every package's allocation gates call it.
	"internal/alloctest.Hold": "shared test helper",
}

// goFile is one parsed non-test source file of the module.
type goFile struct {
	name string // slash path relative to the module root
	pkg  string // import path of the file's package
	ast  *ast.File
}

// parseModule parses every non-test .go file of the module, skipping
// testdata directories.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(p)
		pkg := modulePath
		if dir := path.Dir(name); dir != "." {
			pkg = modulePath + "/" + dir
		}
		files = append(files, goFile{name: name, pkg: pkg, ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// references returns the package-qualified functions a file names: a bare
// identifier is looked up in the file's own package, a selector on an
// imported package's name in that package. A declaration does not name the
// function it declares, nor does a call to itself inside it.
func references(f goFile) map[string]bool {
	imports := map[string]string{}
	for _, imp := range f.ast.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := path.Base(p)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = p
	}
	refs := map[string]bool{}
	self := "" // the function being declared: its name and recursion do not count
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Recv != nil {
				ast.Inspect(x.Recv, visit)
			} else {
				self = x.Name.Name
			}
			ast.Inspect(x.Type, visit)
			if x.Body != nil {
				ast.Inspect(x.Body, visit)
			}
			self = ""
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					refs[p+"."+x.Sel.Name] = true
					return false
				}
			}
			// A field or method selector names no top-level function.
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			if x.Name != self {
				refs[f.pkg+"."+x.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f.ast, visit)
	return refs
}

// TestNoTestOnlyExports fails when no non-test file names an exported
// top-level function of internal/ outside its own declaration: such a
// function is a second form of an algorithm that only tests exercise, or
// dead. Commands, bench/ and the facade count as callers.
func TestNoTestOnlyExports(t *testing.T) {
	files := parseModule(t)
	refs := make([]map[string]bool, len(files))
	for i, f := range files {
		refs[i] = references(f)
	}
	var orphans []string
	for _, f := range files {
		if !strings.HasPrefix(f.name, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			key := f.pkg + "." + fn.Name.Name
			if _, ok := testOnlyAllowed[strings.TrimPrefix(key, modulePath+"/")]; ok {
				continue
			}
			used := false
			for j := range files {
				if refs[j][key] {
					used = true
					break
				}
			}
			if !used {
				orphans = append(orphans, strings.TrimPrefix(key, modulePath+"/")+" ("+f.name+")")
			}
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("exported function only tests call: %s", o)
	}
}

// mdName matches a Markdown file name as prose cites it.
var mdName = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// TestDocReferencesExist fails when a comment of a .go file outside bench/,
// README.md or a docs/*.md page names a Markdown file that exists neither
// at the module root nor under docs/.
func TestDocReferencesExist(t *testing.T) {
	exists := func(name string) bool {
		base := path.Base(name)
		for _, p := range []string{name, base, "docs/" + base} {
			if _, err := os.Stat(filepath.FromSlash(p)); err == nil {
				return true
			}
		}
		return false
	}
	check := func(source, text string) {
		for _, name := range mdName.FindAllString(text, -1) {
			if !exists(name) {
				t.Errorf("%s names %s, which exists neither at the root nor under docs/", source, name)
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench" || (p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), "."))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			check(filepath.ToSlash(p), g.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append([]string{"README.md"}, docs...) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		check(filepath.ToSlash(p), string(b))
	}
}

// fuzzStep matches a CI fuzz-smoke step: the target and the package
// directory it runs in.
var fuzzStep = regexp.MustCompile(`-fuzz=(\S+) -fuzztime=10s (\S+)`)

// TestFuzzTargetsSmokedInCI fails when a fuzz target of the module has no
// CI smoke step, more than one, or when a step names a target its directory
// does not declare: go test -fuzz with a missing target warns and exits 0,
// so a renamed or deleted target would leave a green step that fuzzes
// nothing.
func TestFuzzTargetsSmokedInCI(t *testing.T) {
	targets := map[string]bool{} // "dir FuzzX", dir as the step writes it
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := "."
		if d := path.Dir(filepath.ToSlash(p)); d != "." {
			dir = "./" + d + "/"
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") && takesTestingF(fn) {
				targets[dir+" "+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]int{}
	for _, line := range strings.Split(string(ci), "\n") {
		if !strings.Contains(line, "-fuzz=") {
			continue
		}
		m := fuzzStep.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("ci.yml fuzz step not of the form -fuzz=FuzzX -fuzztime=10s ./dir/: %s", strings.TrimSpace(line))
			continue
		}
		key := m[2] + " " + m[1]
		steps[key]++
		if !targets[key] {
			t.Errorf("ci.yml fuzzes %s in %s, which declares no such target", m[1], m[2])
		}
	}
	keys := make([]string, 0, len(targets))
	for k := range targets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if n := steps[k]; n != 1 {
			t.Errorf("fuzz target %s has %d ci.yml smoke steps, want 1", k, n)
		}
	}
}

// ciProgram matches what makes a CI step a program of its own rather than
// a go command: an interpreter, an HTTP client, a process sent to the
// background, a fixed port.
var ciProgram = regexp.MustCompile(`(?i)python|curl|[^&]&\s*$|(127\.0\.0\.1|localhost):[0-9]`)

// TestCIRunsOnlyGoCommands fails when ci.yml grows a check of its own: an
// inline python or curl gate, a backgrounded server, a fixed port, or more
// than 110 lines. Such a check never runs under go test; it belongs in a Go
// test next to the code it checks.
func TestCIRunsOnlyGoCommands(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(ci), "\n"), "\n")
	if len(lines) > 110 {
		t.Errorf("ci.yml has %d lines, want ≤ 110", len(lines))
	}
	for i, line := range lines {
		if ciProgram.MatchString(line) {
			t.Errorf("ci.yml:%d runs a program of its own: %s", i+1, strings.TrimSpace(line))
		}
	}
}

// allocMeters are the calls that read the allocator or pace the collector
// for a reading.
var allocMeters = map[string]bool{
	"testing.AllocsPerRun":       true,
	"runtime.ReadMemStats":       true,
	"runtime/debug.SetGCPercent": true,
}

// TestOneAllocationMeter fails when a test outside internal/alloctest and
// bench/ reads allocations itself instead of through alloctest.Hold, or
// when a function not named TestAlloc* calls Hold: a second meter would
// read the same subject differently, and CI's -run '^TestAlloc' step must
// select every gate.
func TestOneAllocationMeter(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "bench" || filepath.ToSlash(p) == "internal/alloctest" || (p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), "."))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if imp.Name != nil {
				imports[imp.Name.Name] = ip
			} else {
				imports[path.Base(ip)] = ip
			}
		}
		for _, decl := range f.Decls {
			caller := "a package-level declaration"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				caller = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || imports[id.Name] == "" {
					return true
				}
				switch call := imports[id.Name] + "." + sel.Sel.Name; {
				case allocMeters[call]:
					t.Errorf("%s: %s meters allocations itself; measure through alloctest.Hold", fset.Position(sel.Pos()), call)
				case call == modulePath+"/internal/alloctest.Hold" && !strings.HasPrefix(caller, "TestAlloc"):
					t.Errorf("%s: %s calls alloctest.Hold; only a TestAlloc* test may", fset.Position(sel.Pos()), caller)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// takesTestingF reports whether fn's only parameter is a *testing.F.
func takesTestingF(fn *ast.FuncDecl) bool {
	ps := fn.Type.Params.List
	if len(ps) != 1 || len(ps[0].Names) > 1 {
		return false
	}
	star, ok := ps[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	sel, ok := star.X.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "testing" && sel.Sel.Name == "F"
}
