package analyzers_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"certchains/internal/analyzers"
)

// writeTree lays out a small source tree exercising the walk rules.
func writeTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"a.go":                "package a\n",
		"a_test.go":           "package a\n",
		"sub/b.go":            "package sub\n",
		"sub/b2.go":           "package sub\n",
		"sub/testdata/fix.go": "package broken !!!\n", // skipped: never parsed
		".hidden/h.go":        "package h\n",
		"vendor/v.go":         "package v\n",
		"sub/notgo.txt":       "not go\n",
	}
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoadWalk(t *testing.T) {
	root := writeTree(t)
	_, pkgs, err := analyzers.Load(root, analyzers.LoadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			got = append(got, pkg.Dir+"|"+f.Path)
		}
	}
	want := []string{".|a.go", "sub|sub/b.go", "sub|sub/b2.go"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("file %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestLoadIncludeTests(t *testing.T) {
	root := writeTree(t)
	_, pkgs, err := analyzers.Load(root, analyzers.LoadConfig{IncludeTests: true})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, pkg := range pkgs {
		n += len(pkg.Files)
	}
	if n != 4 {
		t.Fatalf("got %d files with tests included, want 4", n)
	}
}

func TestDirectiveParsing(t *testing.T) {
	fset := token.NewFileSet()
	src := `//certchain:hotpath decode layer

package p

type s struct {
	a int //certchain:alpha shared config
	b int //certchain:beta
	c int // a plain comment mentioning certchain: nothing
}
`
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if !analyzers.FileHasDirective(file, "hotpath") {
		t.Error("file-level hotpath directive not detected")
	}
	if analyzers.FileHasDirective(file, "coldpath") {
		t.Error("absent directive reported present")
	}

	var args []string
	for _, cg := range file.Comments {
		if arg, ok := analyzers.CommentHasDirective(cg, "alpha"); ok {
			args = append(args, "alpha="+arg)
		}
		if arg, ok := analyzers.CommentHasDirective(cg, "beta"); ok {
			args = append(args, "beta="+arg)
		}
	}
	if len(args) != 2 || args[0] != "alpha=shared config" || args[1] != "beta=" {
		t.Errorf("directive args: got %v", args)
	}

	lines := analyzers.DirectiveLines(fset, file, "alpha")
	if len(lines) != 1 {
		t.Fatalf("DirectiveLines: got %v", lines)
	}
	for line := range lines {
		if !analyzers.SuppressedAt(lines, token.Position{Line: line}) ||
			!analyzers.SuppressedAt(lines, token.Position{Line: line + 1}) ||
			analyzers.SuppressedAt(lines, token.Position{Line: line + 2}) {
			t.Error("SuppressedAt must cover the directive line and the next line only")
		}
	}
}

func TestPkgCallShadowing(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

import "time"

func direct() { time.Sleep(1) }

func shadowed() {
	time := fake{}
	time.Sleep(1)
}

type fake struct{}

func (fake) Sleep(int) {}
`
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := analyzers.ImportNames(file, "time")
	if !pkgs["time"] {
		t.Fatal("import name not resolved")
	}
	countSleep := 0
	ast.Inspect(file, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn, ok := analyzers.PkgCall(call, pkgs); ok && fn == "Sleep" {
				countSleep++
			}
		}
		return true
	})
	if countSleep != 1 {
		t.Fatalf("PkgCall matched %d Sleep call(s), want 1 (the shadowed call must not match)", countSleep)
	}
}
