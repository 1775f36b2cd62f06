package visualprint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestServingImportClosure answers "what does a Locate link in": the serving
// packages must not reach the figure-only side of the repo (the scene
// renderer, the paper's experiment code, the capture-loop and network
// simulators). imaging is allowed: sift and codec need it.
func TestServingImportClosure(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "./internal/server", "./internal/repl").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	figureOnly := map[string]bool{}
	for _, p := range []string{"scene", "bench", "match", "power", "session", "icp", "wardrive", "netsim"} {
		figureOnly["visualprint/internal/"+p] = true
	}
	for _, pkg := range strings.Fields(string(out)) {
		if figureOnly[pkg] {
			t.Errorf("serving path imports figure-only package %s", pkg)
		}
	}
}

// TestOneProcessLogger: internal/obs's process logger is the only logger,
// set by SetLogLevel (and, in tests, obs.SetDefault). No non-test file
// outside internal/obs names the obs.Logger type, so no component can grow
// a logger field, option or parameter that routes around it.
func TestOneProcessLogger(t *testing.T) {
	const obsPath = "visualprint/internal/obs"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			// benchmark/ is its own module; dot directories hold build
			// copies of other revisions.
			if path == "internal/obs" || path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		case !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == obsPath {
				name = "obs"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Logger" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
					t.Errorf("%s: names obs.Logger; log through the package-level obs calls instead", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
