// Package analyzers is the shared scaffolding for the project's static
// analysis suite (certchain-vet). Each analyzer guards one hand-maintained
// invariant the runtime equivalence suites can only probe, never prove:
// merge/snapshot field completeness, resilience-layer conventions, hot-path
// allocation discipline, lock discipline, and report determinism. Analyzers
// are built on the standard library alone (go/ast, go/parser, go/token) —
// the build environment is offline and must not vendor golang.org/x/tools —
// and therefore work syntactically, per package, without type information.
//
// The package provides the pieces every analyzer shares: the Finding type,
// the Analyzer interface, a package loader that walks a source tree, and
// helpers for import resolution and //certchain: directive comments.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one diagnostic from one analyzer.
type Finding struct {
	// Pos locates the violation. Filename is root-relative and
	// slash-separated so findings are stable across checkouts.
	Pos token.Position
	// Analyzer is the reporting analyzer's name (e.g. "hotpath").
	Analyzer string
	// Rule is the stable rule identifier within the analyzer.
	Rule string
	// Message explains the violation and the expected fix.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s/%s: %s", f.Pos, f.Analyzer, f.Rule, f.Message)
}

// RuleDoc documents one rule for emitters (SARIF rule metadata, -help).
type RuleDoc struct {
	// ID is the rule identifier, unique within the analyzer.
	ID string
	// Description is a one-line statement of the invariant the rule guards.
	Description string
}

// File is one parsed source file.
type File struct {
	// Path is the root-relative, slash-separated file path.
	Path string
	// AST is the parsed file, with comments and object resolution.
	AST *ast.File
}

// Package groups the files of one directory (one Go package in this module;
// the loader does not support multiple packages per directory).
type Package struct {
	// Dir is the root-relative, slash-separated directory ("." for root).
	Dir string
	// Files are the package's files sorted by path.
	Files []*File
}

// Analyzer is one static check suite over parsed packages.
type Analyzer interface {
	// Name is the stable analyzer name used in configuration and output.
	Name() string
	// Doc is a one-line description of what the analyzer guards.
	Doc() string
	// Rules lists the analyzer's rules for emitter metadata.
	Rules() []RuleDoc
	// Analyze inspects one package and returns its findings. Implementations
	// must be deterministic: findings ordered by (file, line, column).
	Analyze(fset *token.FileSet, pkg *Package) []Finding
}

// LoadConfig controls a Load walk.
type LoadConfig struct {
	// IncludeTests parses _test.go files too (off by default: tests may
	// legitimately use wall-clock time, sleeps, and output helpers).
	IncludeTests bool
}

// Load walks every .go file under root, parses it with comments and object
// resolution, and returns the packages grouped by directory in sorted order.
// Hidden directories, testdata, and vendor trees are skipped.
func Load(root string, cfg LoadConfig) (*token.FileSet, []*Package, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if !cfg.IncludeTests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("analyzers: walk %s: %w", root, err)
	}
	sort.Strings(paths)

	fset := token.NewFileSet()
	byDir := make(map[string]*Package)
	var dirs []string
	for _, path := range paths {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("analyzers: read %s: %w", path, err)
		}
		// ParseComments keeps //certchain: directives; object resolution stays
		// on (needed to distinguish package references from shadowing locals).
		file, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
		if err != nil {
			return nil, nil, fmt.Errorf("analyzers: parse %s: %w", path, err)
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		pkg, ok := byDir[dir]
		if !ok {
			pkg = &Package{Dir: dir}
			byDir[dir] = pkg
			dirs = append(dirs, dir)
		}
		pkg.Files = append(pkg.Files, &File{Path: rel, AST: file})
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkgs = append(pkgs, byDir[dir])
	}
	return fset, pkgs, nil
}

// SortFindings orders findings by (file, line, column, rule) in place.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// ImportNames returns the names (aliases included) under which any of the
// given import paths are visible in the file. Dot and blank imports are
// skipped.
func ImportNames(file *ast.File, paths ...string) map[string]bool {
	want := make(map[string]bool, len(paths))
	for _, p := range paths {
		want[p] = true
	}
	names := make(map[string]bool)
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !want[path] {
			continue
		}
		name := DefaultImportName(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." || name == "_" {
			continue
		}
		names[name] = true
	}
	return names
}

// DefaultImportName derives a package's default identifier from its import
// path: the last segment, skipping major-version suffixes ("math/rand/v2"
// imports as "rand").
func DefaultImportName(path string) string {
	segs := strings.Split(path, "/")
	for i := len(segs) - 1; i >= 0; i-- {
		s := segs[i]
		if len(s) >= 2 && s[0] == 'v' && strings.TrimLeft(s[1:], "0123456789") == "" {
			continue
		}
		return s
	}
	return path
}

// PkgCall resolves a call of the form pkg.Fn(...) where pkg is one of the
// given import names (not a shadowing local variable), returning Fn.
func PkgCall(call *ast.CallExpr, pkgs map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !pkgs[id.Name] {
		return "", false
	}
	// A non-nil Obj means the identifier resolves to a local declaration
	// shadowing the import; a package reference resolves to nothing.
	if id.Obj != nil {
		return "", false
	}
	return sel.Sel.Name, true
}

// DirectivePrefix introduces every analyzer directive comment.
const DirectivePrefix = "//certchain:"

// Directive extracts the directive name and trailing argument from one
// comment. "//certchain:coldpath once per shard" yields ("coldpath",
// "once per shard", true).
func Directive(c *ast.Comment) (name, arg string, ok bool) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, DirectivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, DirectivePrefix)
	name, arg, _ = strings.Cut(rest, " ")
	return name, strings.TrimSpace(arg), name != ""
}

// FileHasDirective reports whether any comment in the file carries the named
// directive (e.g. a //certchain:hotpath package annotation).
func FileHasDirective(file *ast.File, name string) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if n, _, ok := Directive(c); ok && n == name {
				return true
			}
		}
	}
	return false
}

// CommentHasDirective reports whether a comment group carries the named
// directive, returning its argument.
func CommentHasDirective(cg *ast.CommentGroup, name string) (arg string, ok bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		if n, a, k := Directive(c); k && n == name {
			return a, true
		}
	}
	return "", false
}

// DirectiveLines maps each line carrying the named directive to true, for
// statement-level suppression: a finding is suppressed when the directive
// sits on the same line or the line immediately above.
func DirectiveLines(fset *token.FileSet, file *ast.File, name string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if n, _, ok := Directive(c); ok && n == name {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// SuppressedAt reports whether a finding at pos is covered by a directive on
// the same line or the line above it.
func SuppressedAt(lines map[int]bool, pos token.Position) bool {
	return lines[pos.Line] || lines[pos.Line-1]
}

// ExprString renders a restricted expression (identifier chains like "mu" or
// "r.mu.inner") for use in messages and lock-identity comparison. Unsupported
// shapes render as "?".
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return ExprString(e.X)
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[...]"
	case *ast.CallExpr:
		return ExprString(e.Fun) + "()"
	}
	return "?"
}
