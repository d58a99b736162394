// Package hotpath is the allocation ratchet for per-record code. Files
// annotated with a //certchain:hotpath directive (the Zeek decode layer and
// the pipeline observe stage; cmd/certchain-bench/README.md has their current
// share of a pass) are held to allocation discipline:
//
//   - fmt-alloc: fmt.Sprintf/Errorf/Sprint/Sprintln allocate on every call;
//     on a per-record path they dominate the profile. Cold paths (error
//     returns for malformed input, one-time setup) are annotated with
//     //certchain:coldpath on the enclosing function or the statement line.
//   - bytestring-alloc: string(b) over a []byte allocates and copies. The
//     one free form — a conversion used directly as a map index, which the
//     compiler elides — is not flagged.
//   - append-capture: append to a slice captured from an enclosing function
//     inside a closure regrows the captured backing array per call; hot
//     loops should preallocate or pass the slice explicitly.
//
// The directive makes the ratchet opt-in and reviewable: annotating a file
// hotpath is a statement that its allocations are budgeted, and the analyzer
// keeps that statement true as the code evolves.
package hotpath

import (
	"go/ast"
	"go/token"

	"certchains/internal/analyzers"
)

// Analyzer implements analyzers.Analyzer.
type Analyzer struct{}

// Name implements analyzers.Analyzer.
func (Analyzer) Name() string { return "hotpath" }

// Doc implements analyzers.Analyzer.
func (Analyzer) Doc() string {
	return "allocation ratchet for //certchain:hotpath files (per-record fmt, []byte→string, closure append)"
}

// Rules implements analyzers.Analyzer.
func (Analyzer) Rules() []analyzers.RuleDoc {
	return []analyzers.RuleDoc{
		{ID: "fmt-alloc", Description: "fmt formatting on a hot path allocates per record; move to a cold path or build bytes directly"},
		{ID: "bytestring-alloc", Description: "[]byte→string conversion allocates and copies; keep bytes or index maps with m[string(b)] directly"},
		{ID: "append-capture", Description: "append to a captured slice inside a closure regrows the backing array per call"},
	}
}

// fmtAlloc are the fmt functions that allocate a fresh string/error per call.
var fmtAlloc = map[string]bool{
	"Sprintf": true, "Errorf": true, "Sprint": true, "Sprintln": true,
}

// Analyze implements analyzers.Analyzer.
func (Analyzer) Analyze(fset *token.FileSet, pkg *analyzers.Package) []analyzers.Finding {
	var findings []analyzers.Finding
	for _, f := range pkg.Files {
		if !analyzers.FileHasDirective(f.AST, "hotpath") {
			continue
		}
		findings = append(findings, analyzeFile(fset, f.AST)...)
	}
	analyzers.SortFindings(findings)
	return findings
}

func analyzeFile(fset *token.FileSet, file *ast.File) []analyzers.Finding {
	cold := analyzers.DirectiveLines(fset, file, "coldpath")
	fmtPkgs := analyzers.ImportNames(file, "fmt")
	byteSlices := collectByteSliceIdents(file)
	var findings []analyzers.Finding
	report := func(pos token.Pos, rule, msg string) {
		p := fset.Position(pos)
		if analyzers.SuppressedAt(cold, p) {
			return
		}
		findings = append(findings, analyzers.Finding{
			Pos: p, Analyzer: "hotpath", Rule: rule, Message: msg,
		})
	}

	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if _, isCold := analyzers.CommentHasDirective(fd.Doc, "coldpath"); isCold {
			continue
		}
		// funcLits tracks enclosing function literals for capture analysis.
		var funcLits []*ast.FuncLit
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				funcLits = append(funcLits, n)
				ast.Inspect(n.Body, walk)
				funcLits = funcLits[:len(funcLits)-1]
				return false
			case *ast.CallExpr:
				if fn, ok := analyzers.PkgCall(n, fmtPkgs); ok && fmtAlloc[fn] {
					report(n.Pos(), "fmt-alloc",
						"fmt."+fn+" allocates per call on a hot path; move to a cold path (//certchain:coldpath) or build bytes directly")
				}
				checkAppendCapture(n, funcLits, report)
				checkByteString(n, byteSlices, report)
			case *ast.IndexExpr:
				// m[string(b)] is compiler-elided: walk the map expression but
				// skip the index conversion itself.
				ast.Inspect(n.X, walk)
				if call, ok := n.Index.(*ast.CallExpr); ok && isStringConv(call) {
					for _, a := range call.Args {
						ast.Inspect(a, walk)
					}
					return false
				}
				ast.Inspect(n.Index, walk)
				return false
			}
			return true
		}
		ast.Inspect(fd.Body, walk)
	}
	return findings
}

// isStringConv reports a call of the form string(x).
func isStringConv(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "string" && len(call.Args) == 1
}

// checkByteString flags string(b) where b provably holds a []byte.
func checkByteString(call *ast.CallExpr, byteSlices map[*ast.Object]bool, report func(token.Pos, string, string)) {
	if !isStringConv(call) {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok || id.Obj == nil || !byteSlices[id.Obj] {
		return
	}
	report(call.Pos(), "bytestring-alloc",
		"string("+id.Name+") allocates and copies on a hot path; keep bytes, intern, or index maps with m[string(b)] directly")
}

// checkAppendCapture flags append(x, ...) inside a closure when x is declared
// outside the innermost function literal.
func checkAppendCapture(call *ast.CallExpr, funcLits []*ast.FuncLit, report func(token.Pos, string, string)) {
	if len(funcLits) == 0 || len(call.Args) == 0 {
		return
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" || fn.Obj != nil {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok || id.Obj == nil {
		return
	}
	decl, ok := id.Obj.Decl.(ast.Node)
	if !ok {
		return
	}
	innermost := funcLits[len(funcLits)-1]
	if decl.Pos() >= innermost.Pos() && decl.End() <= innermost.End() {
		return // declared inside the closure — not a capture
	}
	report(call.Pos(), "append-capture",
		"append to captured slice "+id.Name+" inside a closure regrows the backing array per call; preallocate or pass the slice explicitly")
}

// collectByteSliceIdents gathers identifiers whose declaration proves []byte:
// `var b []byte`, `b := []byte(...)`, `b := make([]byte, ...)`, and []byte
// parameters/results.
func collectByteSliceIdents(file *ast.File) map[*ast.Object]bool {
	out := make(map[*ast.Object]bool)
	mark := func(id *ast.Ident) {
		if id != nil && id.Obj != nil {
			out[id.Obj] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if isByteSliceType(n.Type) {
				for _, id := range n.Names {
					mark(id)
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isByteSliceExpr(v) {
					mark(n.Names[i])
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) || !isByteSliceExpr(rhs) {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					mark(id)
				}
			}
		case *ast.Field:
			if isByteSliceType(n.Type) {
				for _, id := range n.Names {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// isByteSliceType matches the literal type []byte.
func isByteSliceType(e ast.Expr) bool {
	arr, ok := e.(*ast.ArrayType)
	if !ok || arr.Len != nil {
		return false
	}
	id, ok := arr.Elt.(*ast.Ident)
	return ok && id.Name == "byte"
}

// isByteSliceExpr matches expressions that evidently yield []byte:
// []byte(...), make([]byte, ...), or append over a known byte slice is not
// needed — conversions and make cover the decode layer's idiom.
func isByteSliceExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if isByteSliceType(e.Fun) {
			return true
		}
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			return isByteSliceType(e.Args[0])
		}
	case *ast.CompositeLit:
		return isByteSliceType(e.Type)
	}
	return false
}
