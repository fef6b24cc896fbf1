package skyloader_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
