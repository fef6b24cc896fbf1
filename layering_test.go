package skyloader_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	pathpkg "path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDESOnlyBehindExec pins the execution layering: internal/exec is the
// one package outside tests that imports the discrete-event kernel, so every
// other layer is written against exec.Scheduler, Worker and Resource and
// runs unchanged on either engine.  Test files are exempt: a test may drive
// a des.Kernel directly.
func TestDESOnlyBehindExec(t *testing.T) {
	const desPath = "skyloader/internal/des"
	allowed := map[string]bool{"internal/exec": true, "internal/des": true}
	fset := token.NewFileSet()
	var importers []string
	sawExec := false
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			pkg := filepath.ToSlash(filepath.Dir(path))
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p != desPath {
					continue
				}
				sawExec = sawExec || pkg == "internal/exec"
				if !allowed[pkg] {
					importers = append(importers, path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawExec {
		t.Fatalf("internal/exec does not import %s: the walk looked in the wrong place", desPath)
	}
	if len(importers) > 0 {
		t.Errorf("%s imported outside internal/exec by %q: build on exec.NewDES and the Scheduler interface instead",
			desPath, importers)
	}
}

// exportsWithoutCallers are the exported names under internal/ that may
// stand with no caller outside tests, each with the reason it stays.  The
// list only shrinks: TestExportsHaveCallers fails when its length is not
// maxExportsWithoutCallers, or when an entry has gained a caller.
var exportsWithoutCallers = map[string]string{
	"relstore.CompareKeys":           "specification oracle: the comparison the encoded-key order is tested against",
	"relstore.EncodeOrderedKey":      "specification oracle: the one-key encoding the B-tree's appenders are tested against",
	"catalog.ParseLine":              "specification oracle: the line parser ReadRecords and ParseText are tested against",
	"relstore.MustOpen":              "test constructor shared by the packages whose tests open a database",
	"shard.Coordinator.RestoreShard": "re-loads a lost agent's files from the coordinator's directory (ROADMAP item 3(ii))",
	"des.eventHeap.Less":             "container/heap calls it through heap.Interface, which a name-level scan cannot see",
	"shard.ShardError.Unwrap":        "errors.Is and errors.As call it through an interface, which a name-level scan cannot see",
}

// maxExportsWithoutCallers pins exportsWithoutCallers' length.  Lower it
// when an entry goes; never raise it.
const maxExportsWithoutCallers = 7

// TestExportsHaveCallers fails on any exported function, method, type,
// variable or constant declared under internal/ that no non-test file of
// the repository names outside its own declaration.  bench/ counts as a
// caller, so the API the frozen benchmark uses stays.  Methods are matched
// by name alone (exact resolution needs go/types, which takes seconds), so
// the scan is a lower bound on dead methods: one whose name a selector on
// some other type shares counts as called, and one only an interface calls
// needs an allowlist entry.
func TestExportsHaveCallers(t *testing.T) {
	dead, err := uncalledExports(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) < len(exportsWithoutCallers) {
		t.Fatalf("the scan found %d uncalled exports, fewer than the %d allowed ones: it looked in the wrong place",
			len(dead), len(exportsWithoutCallers))
	}
	for _, err := range checkExports(dead, exportsWithoutCallers, maxExportsWithoutCallers) {
		t.Error(err)
	}
}

// TestExportScanFixture runs the scan over testdata/exports: an exported
// function with no caller is reported, a caller in a _test.go file does not
// count and one under bench/ does, a top-level name counts only where it is
// this package's (bare in the package, or through an import of it), and a
// method counts where a selector names it.
func TestExportScanFixture(t *testing.T) {
	dead, err := uncalledExports(filepath.Join("testdata", "exports"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dead.Shadowed", "dead.T.Unused", "dead.TestOnly", "dead.Uncalled"}
	if !slices.Equal(dead, want) {
		t.Fatalf("uncalled exports = %q, want %q", dead, want)
	}
	if errs := checkExports(dead, map[string]string{"dead.Shadowed": "kept", "dead.T.Unused": "kept", "dead.TestOnly": "kept", "dead.Uncalled": "kept"}, 4); len(errs) != 0 {
		t.Fatalf("a full allowlist failed: %v", errs)
	}
	if errs := checkExports(dead, map[string]string{"dead.TestOnly": "kept"}, 1); len(errs) != 3 {
		t.Fatalf("three unlisted names gave %d errors, want 3: %v", len(errs), errs)
	}
}

// TestExportAllowlistOnlyShrinks: an allowlist grown past its pinned length
// fails even when every entry names an uncalled export, and so do one
// shorter than its pin and an entry for a name that has a caller or carries
// no reason.
func TestExportAllowlistOnlyShrinks(t *testing.T) {
	dead := []string{"dead.TestOnly", "dead.Uncalled"}
	grown := map[string]string{"dead.TestOnly": "kept", "dead.Uncalled": "a new entry"}
	if errs := checkExports(dead, grown, 1); len(errs) != 1 || !strings.Contains(errs[0].Error(), "may only shrink") {
		t.Fatalf("allowlist grown past its pin: %v, want one growth error", errs)
	}
	grown = maps.Clone(exportsWithoutCallers)
	grown["dead.Uncalled"] = "a new entry"
	all := slices.Clone(dead)
	for name := range exportsWithoutCallers {
		all = append(all, name)
	}
	if errs := checkExports(all, grown, maxExportsWithoutCallers); len(errs) != 2 {
		t.Fatalf("the real allowlist plus one entry: %v, want the growth error and dead.TestOnly", errs)
	}
	if errs := checkExports(dead, map[string]string{"dead.TestOnly": "kept", "dead.Uncalled": "kept"}, 3); len(errs) != 1 || !strings.Contains(errs[0].Error(), "lower the pin") {
		t.Fatalf("allowlist shorter than its pin: %v, want one error", errs)
	}
	stale := map[string]string{"dead.TestOnly": "kept", "dead.Called": "kept", "dead.Uncalled": ""}
	if errs := checkExports(dead, stale, 3); len(errs) != 2 {
		t.Fatalf("stale and reasonless entries: %v, want 2 errors", errs)
	}
}

// checkExports compares a scan's uncalled exports with an allowlist pinned
// at pin entries and returns one error per exported name with no caller and
// no allowlist entry, per allowlist entry that is not (or no longer) an
// uncalled export or carries no reason, and one if the list's length is not
// its pin.
func checkExports(dead []string, allow map[string]string, pin int) []error {
	var errs []error
	switch {
	case len(allow) > pin:
		errs = append(errs, fmt.Errorf("the allowlist holds %d entries, more than its pinned %d: it may only shrink", len(allow), pin))
	case len(allow) < pin:
		errs = append(errs, fmt.Errorf("the allowlist holds %d entries: lower the pin from %d to %d", len(allow), pin, len(allow)))
	}
	uncalled := make(map[string]bool, len(dead))
	for _, name := range dead {
		uncalled[name] = true
		if _, ok := allow[name]; !ok {
			errs = append(errs, fmt.Errorf("%s is exported but no non-test file names it: delete it, or move it into its package's export_test.go if tests need it", name))
		}
	}
	var stale []string
	for name, reason := range allow {
		if reason == "" {
			errs = append(errs, fmt.Errorf("allowlist entry %s carries no reason", name))
		}
		if !uncalled[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		errs = append(errs, fmt.Errorf("allowlist entry %s is not an uncalled export: remove it and lower the pinned length", name))
	}
	return errs
}

// uncalledExports parses every non-test .go file under root, skipping
// testdata and hidden directories, and returns the exported top-level
// names and methods declared under root/internal that no identifier in
// those files names, other than their own declarations.  A top-level name
// is used where a file of its package names it bare or any file names it
// through an import of its package; a method is used where any selector
// names it, whatever the receiver, since that needs types.  A name is
// "pkg.Name" or "pkg.Recv.Method", pkg its directory below internal/.
func uncalledExports(root string) ([]string, error) {
	type file struct {
		dir string // the file's directory below root, slash-separated
		f   *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		files = append(files, file{filepath.ToSlash(dir), f})
		return err
	})
	if err != nil {
		return nil, err
	}

	type decl struct{ dir, recv, name string }
	var decls []decl
	declaring := map[*ast.Ident]bool{} // names being declared, which are not uses
	for _, fl := range files {
		internal := strings.HasPrefix(fl.dir, "internal/")
		add := func(recv string, id *ast.Ident) {
			declaring[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{fl.dir, recv, id.Name})
			}
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = receiverName(d.Recv.List[0].Type)
				}
				add(recv, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add("", spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add("", id)
						}
					}
				}
			}
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			if list, ok := n.(*ast.FieldList); ok {
				for _, field := range list.List {
					for _, id := range field.Names {
						declaring[id] = true
					}
				}
			}
			return true
		})
	}

	qualified := map[string]bool{} // "dir.Name": a top-level name used
	selected := map[string]bool{}  // a name some selector picks
	for _, fl := range files {
		imports := map[string]string{}
		for _, imp := range fl.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if dir, ok := strings.CutPrefix(p, "skyloader/"); ok {
				name := pathpkg.Base(p)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = dir
			}
		}
		sel := map[*ast.Ident]bool{}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					qualified[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				selected[n.Sel.Name] = true
			case *ast.Ident:
				if !sel[n] && !declaring[n] {
					qualified[fl.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var dead []string
	for _, d := range decls {
		key := strings.TrimPrefix(d.dir, "internal/") + "."
		switch {
		case d.recv == "" && !qualified[d.dir+"."+d.name]:
			dead = append(dead, key+d.name)
		case d.recv != "" && !selected[d.name]:
			dead = append(dead, key+d.recv+"."+d.name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// receiverName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
