// Package determinism is a project-specific static analyzer guarding the
// pipeline's byte-identical-output contract: report-producing code must not
// read wall-clock time, draw from the shared (unseeded) math/rand source, or
// print while ranging over a map. The checker mirrors the go/analysis
// single-pass shape but is built on the standard library alone (go/ast,
// go/parser, go/token), because the build environment is offline and must
// not vendor golang.org/x/tools.
//
// Three rules:
//
//   - time-now: any call to time.Now(). Reports must derive their reference
//     time from the scenario or a flag, never from the wall clock.
//   - unseeded-rand: package-level draws from math/rand or math/rand/v2
//     (rand.Intn, rand.Float64, rand.Shuffle, ...). Seeded generators built
//     via rand.New(...) are fine.
//   - map-range-output: a `range` statement over a locally-provable map
//     value whose body directly emits output (fmt print family or Write*
//     methods) — map iteration order would leak into the report.
//
// Findings carry the rule name and position; the allowlist (paths where
// wall-clock time is the point: CLIs, live scanners, servers) is applied by
// certchain-vet from .certchain-vet.json.
package determinism

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"

	"certchains/internal/analyzers"
)

// Finding is one determinism violation.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule is the stable rule name: "time-now", "unseeded-rand", or
	// "map-range-output".
	Rule string
	// Message explains the violation.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
}

// drawFuncs are the math/rand package-level functions that consume the
// shared global source. Constructors (New, NewPCG, NewSource, NewZipf, ...)
// are deliberately absent: building a seeded generator is the fix, not the
// bug.
var drawFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"UintN": true, "Uint": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
}

// outputFuncs are the fmt functions that write program output.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// AnalyzeFile runs every rule over one parsed file and returns its findings
// sorted by position.
func AnalyzeFile(fset *token.FileSet, file *ast.File) []Finding {
	a := &analyzer{
		fset:      fset,
		timePkgs:  importNames(file, "time"),
		randPkgs:  importNames(file, "math/rand", "math/rand/v2"),
		fmtPkgs:   importNames(file, "fmt"),
		mapIdents: collectMapIdents(file),
	}
	ast.Inspect(file, a.visit)
	sort.Slice(a.findings, func(i, j int) bool {
		pi, pj := a.findings[i].Pos, a.findings[j].Pos
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return a.findings
}

type analyzer struct {
	fset      *token.FileSet
	timePkgs  map[string]bool
	randPkgs  map[string]bool
	fmtPkgs   map[string]bool
	mapIdents map[*ast.Object]bool
	findings  []Finding
}

func (a *analyzer) report(pos token.Pos, rule, format string, args ...any) {
	a.findings = append(a.findings, Finding{
		Pos:     a.fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

func (a *analyzer) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		a.checkCall(n)
	case *ast.RangeStmt:
		a.checkRange(n)
	}
	return true
}

// pkgCall resolves a call of the form pkg.Fn(...) where pkg is one of the
// given import names (not a shadowing local variable), returning Fn.
func pkgCall(call *ast.CallExpr, pkgs map[string]bool) (string, bool) {
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

func (a *analyzer) checkCall(call *ast.CallExpr) {
	if fn, ok := pkgCall(call, a.timePkgs); ok && fn == "Now" {
		a.report(call.Pos(), "time-now",
			"wall-clock read; thread a reference time through config instead")
	}
	if fn, ok := pkgCall(call, a.randPkgs); ok && drawFuncs[fn] {
		a.report(call.Pos(), "unseeded-rand",
			"rand.%s draws from the shared unseeded source; use a seeded rand.New generator", fn)
	}
}

// checkRange flags `for ... := range m` over a provable map when the body
// directly produces output.
func (a *analyzer) checkRange(rng *ast.RangeStmt) {
	id, ok := rng.X.(*ast.Ident)
	if !ok || id.Obj == nil || !a.mapIdents[id.Obj] {
		return
	}
	var out token.Pos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if out.IsValid() {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := pkgCall(call, a.fmtPkgs); ok && outputFuncs[fn] {
			out = call.Pos()
			return false
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Write") {
			out = call.Pos()
			return false
		}
		return true
	})
	if out.IsValid() {
		a.report(rng.Pos(), "map-range-output",
			"output emitted while ranging over map %q; iteration order is random — sort the keys first", id.Name)
	}
}

// collectMapIdents gathers identifiers whose declaration proves a map type:
// `var x map[...]...`, `x := make(map[...]...)`, `x := map[...]...{...}`,
// and function parameters/results with explicit map types.
func collectMapIdents(file *ast.File) map[*ast.Object]bool {
	maps := make(map[*ast.Object]bool)
	mark := func(id *ast.Ident) {
		if id != nil && id.Obj != nil {
			maps[id.Obj] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if _, ok := n.Type.(*ast.MapType); ok {
				for _, id := range n.Names {
					mark(id)
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isMapExpr(v) {
					mark(n.Names[i])
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isMapExpr(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					mark(id)
				}
			}
		case *ast.Field:
			if _, ok := n.Type.(*ast.MapType); ok {
				for _, id := range n.Names {
					mark(id)
				}
			}
		}
		return true
	})
	return maps
}

// isMapExpr reports whether an expression evidently yields a map: a map
// composite literal or make(map[...]...).
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			_, ok := e.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// importNames returns the names (aliases included) under which any of the
// given import paths are visible in the file. Dot and blank imports are
// skipped.
func importNames(file *ast.File, paths ...string) map[string]bool {
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
		name := defaultImportName(path)
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

// defaultImportName derives a package's default identifier from its import
// path: the last segment, skipping major-version suffixes ("math/rand/v2"
// imports as "rand").
func defaultImportName(path string) string {
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

// Suite adapts the determinism rules to the certchain-vet analyzer suite
// (internal/analyzers): certchain-vet runs it alongside
// resilience, hotpath, and locks under one allowlist
// (.certchain-vet.json) and emitter set.
type Suite struct{}

// Name implements analyzers.Analyzer.
func (Suite) Name() string { return "determinism" }

// Doc implements analyzers.Analyzer.
func (Suite) Doc() string {
	return "report-producing code must not read the wall clock, draw unseeded randomness, or emit map-ordered output"
}

// Rules implements analyzers.Analyzer.
func (Suite) Rules() []analyzers.RuleDoc {
	return []analyzers.RuleDoc{
		{ID: "time-now", Description: "wall-clock read in deterministic code; thread a reference time through config"},
		{ID: "unseeded-rand", Description: "draw from the shared unseeded math/rand source; use a seeded rand.New generator"},
		{ID: "map-range-output", Description: "output emitted while ranging over a map; iteration order is random"},
	}
}

// Analyze implements analyzers.Analyzer.
func (Suite) Analyze(fset *token.FileSet, pkg *analyzers.Package) []analyzers.Finding {
	var out []analyzers.Finding
	for _, f := range pkg.Files {
		for _, fd := range AnalyzeFile(fset, f.AST) {
			out = append(out, analyzers.Finding{
				Pos:      fd.Pos,
				Analyzer: "determinism",
				Rule:     fd.Rule,
				Message:  fd.Message,
			})
		}
	}
	analyzers.SortFindings(out)
	return out
}
