package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoHandWrittenTrialLoop keeps every experiment on the one trial
// loop (scenario.Run, directly or through sim.Run): no non-test file of
// the package may call a core.State mutation method, so no table can
// grow its own delete/heal/join loop beside scenario's.
func TestNoHandWrittenTrialLoop(t *testing.T) {
	mutations := map[string]bool{
		"DeleteAndHeal":          true,
		"DeleteBatchAndHeal":     true,
		"DeleteBatchAndHealWith": true,
		"RemoveBatch":            true,
		"Join":                   true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A selector on an imported package (strings.Join) is not a
		// method call.
		pkgs := map[string]bool{}
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			pkgs[name] = true
		}
		ast.Inspect(af, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !mutations[sel.Sel.Name] {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && pkgs[id.Name] {
				return true
			}
			t.Errorf("%s: calls %s; run the trial on scenario.Run instead",
				fset.Position(call.Pos()), sel.Sel.Name)
			return true
		})
	}
}
