// Package mergefields statically checks merge/snapshot field completeness:
// for every accumulator type that declares a Merge method and/or a snapshot
// codec, every struct field must be referenced in the Merge body and in the
// snapshot encode/decode pair. A field that is accumulated during observation
// but forgotten in Merge silently breaks shard-merge correctness — only at
// workers>1, where the runtime equivalence suite may or may not exercise the
// dropped field — and a field missing from the codec silently loses state
// across daemon restarts. This analyzer makes both omissions compile-time
// visible.
//
// Conventions recognized (the ones the repo's accumulators already follow):
//
//   - merge method: a method named "Merge" or "merge" on T
//     (partialReport.merge, obs.Registry.Merge, stats.CDF.Merge, ...).
//   - snapshot encode: a method on T whose name contains "Snapshot" or
//     "snapshot", or T's MarshalJSON (WindowRing.Snapshot,
//     graph.Graph.MarshalJSON, stats.CDF.MarshalJSON, ...).
//   - snapshot decode: any function in the package whose name starts with
//     "Restore"/"restore" or contains "FromSnapshot" and whose parameters or
//     results reference T, or T's UnmarshalJSON (RestoreWindowRing,
//     graph.Graph.UnmarshalJSON, stats.Histogram.UnmarshalJSON, ...).
//   - json-tagged state: an accumulator with a merge method whose fields
//     carry json tags is its own wire format (partialReport,
//     lint.CorpusReport, dga.ClusterStats), so every field must be exported
//     for encoding/json to write it.
//
// A field counts as covered when its name appears as a selector or composite
// literal key anywhere in the relevant bodies — a deliberate
// overapproximation (the analyzer is untyped), tuned to catch omissions
// rather than prove correctness.
//
// Fields that are configuration rather than accumulated state (shared
// pipeline pointers, detectors, linters) are exempted with a field directive
// carrying a mandatory reason:
//
//	p *Pipeline //certchain:nomerge shared read-only pipeline config
//
// Fields that are merged but legitimately absent from the snapshot codec
// because the decode path recomputes them (derived totals, config threaded
// from an authoritative sibling snapshot) use //certchain:nosnapshot with a
// reason; the merge-field check stays active for them.
//
// Mutex, Once, and WaitGroup fields are exempt automatically — they guard
// state but are never merged or persisted.
package mergefields

import (
	"fmt"
	"go/ast"
	"go/token"
	"reflect"
	"strconv"
	"strings"

	"certchains/internal/analyzers"
)

// Analyzer implements analyzers.Analyzer.
type Analyzer struct{}

// Name implements analyzers.Analyzer.
func (Analyzer) Name() string { return "mergefields" }

// Doc implements analyzers.Analyzer.
func (Analyzer) Doc() string {
	return "every accumulator field must be covered by Merge and by the snapshot encode/decode pair"
}

// Rules implements analyzers.Analyzer.
func (Analyzer) Rules() []analyzers.RuleDoc {
	return []analyzers.RuleDoc{
		{ID: "merge-field", Description: "struct field not referenced in the type's Merge body; it would be silently dropped on shard merge"},
		{ID: "snapshot-field", Description: "struct field not referenced in the snapshot encode/decode pair, or unexported in a json-tagged accumulator; it would be silently lost across restarts"},
		{ID: "nomerge-reason", Description: "//certchain:nomerge and //certchain:nosnapshot directives require a reason"},
	}
}

// structInfo is one struct type declaration with its field set.
type structInfo struct {
	name   string
	pos    token.Pos
	fields []fieldInfo
	// jsonTagged: some field carries a json struct tag.
	jsonTagged bool
}

type fieldInfo struct {
	name string
	pos  token.Pos
	// exemptMerge: //certchain:nomerge (not accumulated state) or a sync
	// guard type. exemptSnapshot additionally covers //certchain:nosnapshot
	// (state recomputed on restore).
	exemptMerge    bool
	exemptSnapshot bool
}

// funcInfo is one function or method declaration.
type funcInfo struct {
	name string
	// recv is the receiver's base type name ("" for plain functions).
	recv string
	// typeRefs are base type names appearing in the parameter and result
	// lists (pointers and errors unwrapped).
	typeRefs map[string]bool
	// fieldRefs are all selector names and composite-literal keys used in
	// the body.
	fieldRefs map[string]bool
}

// Analyze implements analyzers.Analyzer.
func (Analyzer) Analyze(fset *token.FileSet, pkg *analyzers.Package) []analyzers.Finding {
	var structs []*structInfo
	var funcs []*funcInfo
	var findings []analyzers.Finding

	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					si, fs := collectStruct(fset, ts.Name.Name, st)
					structs = append(structs, si)
					findings = append(findings, fs...)
				}
			case *ast.FuncDecl:
				funcs = append(funcs, collectFunc(d))
			}
		}
	}

	for _, si := range structs {
		merge := coverage(funcs, si.name, isMergeFor)
		encode := coverage(funcs, si.name, isEncodeFor)
		decode := coverage(funcs, si.name, isDecodeFor)

		if merge != nil {
			findings = append(findings, missing(fset, si, merge, false,
				"merge-field", "not referenced in %s's Merge body; the field would be silently dropped on shard merge")...)
		}
		if si.jsonTagged && merge != nil {
			exported := make(map[string]bool, len(si.fields))
			for _, f := range si.fields {
				exported[f.name] = ast.IsExported(f.name)
			}
			findings = append(findings, missing(fset, si, exported, true,
				"snapshot-field", "unexported in json-tagged %s; encoding/json would silently drop it on restore")...)
		}
		if encode != nil && decode != nil {
			union := make(map[string]bool, len(encode)+len(decode))
			for k := range encode {
				union[k] = true
			}
			for k := range decode {
				union[k] = true
			}
			findings = append(findings, missing(fset, si, union, true,
				"snapshot-field", "not referenced in %s's snapshot encode/decode pair; the field would be silently lost on restore")...)
		}
	}
	analyzers.SortFindings(findings)
	return findings
}

// collectStruct gathers a struct's named fields, marking exemptions. Findings
// are emitted for nomerge directives missing their mandatory reason.
func collectStruct(fset *token.FileSet, name string, st *ast.StructType) (*structInfo, []analyzers.Finding) {
	si := &structInfo{name: name, pos: st.Pos()}
	var findings []analyzers.Finding
	for _, field := range st.Fields.List {
		exMerge, exSnap, reasonMissing := fieldExempt(field)
		if field.Tag != nil {
			tag, _ := strconv.Unquote(field.Tag.Value) // a parsed tag literal always unquotes
			if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
				si.jsonTagged = true
			}
		}
		if reasonMissing {
			findings = append(findings, analyzers.Finding{
				Pos:      fset.Position(field.Pos()),
				Analyzer: "mergefields",
				Rule:     "nomerge-reason",
				Message:  "//certchain:nomerge and //certchain:nosnapshot require a reason (e.g. \"//certchain:nomerge shared config\")",
			})
		}
		names := field.Names
		if len(names) == 0 {
			// Embedded field: track under its type's base name.
			if base := baseTypeName(field.Type); base != "" {
				si.fields = append(si.fields, fieldInfo{name: base, pos: field.Pos(), exemptMerge: exMerge, exemptSnapshot: exSnap})
			}
			continue
		}
		for _, id := range names {
			if id.Name == "_" {
				continue
			}
			si.fields = append(si.fields, fieldInfo{name: id.Name, pos: id.Pos(), exemptMerge: exMerge, exemptSnapshot: exSnap})
		}
	}
	return si, findings
}

// fieldExempt reports how a field escapes coverage checking:
// //certchain:nomerge marks configuration that is never merged or persisted
// (exempt from both rules); //certchain:nosnapshot marks state the decode
// path recomputes (exempt from snapshot-field only). Both directives require
// a reason. Synchronization-guard types are exempt from both automatically.
func fieldExempt(field *ast.Field) (exemptMerge, exemptSnapshot, reasonMissing bool) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if arg, ok := analyzers.CommentHasDirective(cg, "nomerge"); ok {
			exemptMerge, exemptSnapshot = true, true
			reasonMissing = reasonMissing || arg == ""
		}
		if arg, ok := analyzers.CommentHasDirective(cg, "nosnapshot"); ok {
			exemptSnapshot = true
			reasonMissing = reasonMissing || arg == ""
		}
	}
	if exemptMerge || exemptSnapshot {
		return exemptMerge, exemptSnapshot, reasonMissing
	}
	switch typeText(field.Type) {
	case "sync.Mutex", "sync.RWMutex", "sync.Once", "sync.WaitGroup":
		return true, true, false
	}
	return false, false, false
}

// typeText renders a field type's textual form for the sync-guard check.
func typeText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return typeText(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return typeText(e.X)
	}
	return ""
}

// baseTypeName unwraps pointers/selectors down to the base identifier.
func baseTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return baseTypeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr: // generic instantiation
		return baseTypeName(e.X)
	}
	return ""
}

// collectFunc records a declaration's name, receiver, signature type
// references, and body field references.
func collectFunc(d *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{
		name:      d.Name.Name,
		typeRefs:  make(map[string]bool),
		fieldRefs: make(map[string]bool),
	}
	if d.Recv != nil && len(d.Recv.List) > 0 {
		fi.recv = baseTypeName(d.Recv.List[0].Type)
	}
	if d.Type.Params != nil {
		for _, p := range d.Type.Params.List {
			markTypeRefs(p.Type, fi.typeRefs)
		}
	}
	if d.Type.Results != nil {
		for _, r := range d.Type.Results.List {
			markTypeRefs(r.Type, fi.typeRefs)
		}
	}
	if d.Body != nil {
		ast.Inspect(d.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				fi.fieldRefs[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					fi.fieldRefs[id.Name] = true
				}
			}
			return true
		})
	}
	return fi
}

// markTypeRefs records every base identifier a signature type mentions.
func markTypeRefs(e ast.Expr, out map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
}

// isMergeFor: a method named Merge/merge on T mentioning T in its signature.
func isMergeFor(f *funcInfo, typ string) bool {
	lower := strings.ToLower(f.name)
	return lower == "merge" && f.recv == typ
}

// isEncodeFor: a method on T whose name mentions "snapshot", or T's
// MarshalJSON.
func isEncodeFor(f *funcInfo, typ string) bool {
	return f.recv == typ && (strings.Contains(strings.ToLower(f.name), "snapshot") || f.name == "MarshalJSON")
}

// isDecodeFor: a restore-shaped function whose signature references T, or
// T's UnmarshalJSON.
func isDecodeFor(f *funcInfo, typ string) bool {
	if f.name == "UnmarshalJSON" {
		return f.recv == typ
	}
	lower := strings.ToLower(f.name)
	restoreShaped := strings.HasPrefix(lower, "restore") || strings.Contains(lower, "fromsnapshot")
	return restoreShaped && (f.typeRefs[typ] || f.recv == typ)
}

// coverage returns the union of body field references across every function
// matching the predicate for typ, or nil when none match.
func coverage(funcs []*funcInfo, typ string, match func(*funcInfo, string) bool) map[string]bool {
	var out map[string]bool
	for _, f := range funcs {
		if !match(f, typ) {
			continue
		}
		if out == nil {
			out = make(map[string]bool)
		}
		for k := range f.fieldRefs {
			out[k] = true
		}
	}
	return out
}

// missing reports each non-exempt field of si absent from covered.
func missing(fset *token.FileSet, si *structInfo, covered map[string]bool, snapshot bool, rule, format string) []analyzers.Finding {
	var out []analyzers.Finding
	for _, f := range si.fields {
		exempt := f.exemptMerge
		if snapshot {
			exempt = f.exemptSnapshot
		}
		if exempt || covered[f.name] {
			continue
		}
		out = append(out, analyzers.Finding{
			Pos:      fset.Position(f.pos),
			Analyzer: "mergefields",
			Rule:     rule,
			Message:  "field " + si.name + "." + f.name + " " + fmt.Sprintf(format, si.name),
		})
	}
	return out
}
