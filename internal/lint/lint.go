// Package lint is a stdlib-only static-analysis engine for this
// repository. It parses and type-checks the module with go/parser and
// go/types (no golang.org/x/tools dependency, preserving the zero-dep
// rule) and runs the analyzers that catch bugs no test or run-time
// check does (DESIGN.md "Rule × mutation audit"): lock order and
// WaitGroup balance.
//
// Diagnostics carry file:line:col positions. A finding can be silenced
// at its line (or the line below the comment) with a reasoned
// suppression directive:
//
//	//lint:allow <rule> <reason>
//
// The reason is mandatory; a bare allow is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant check run over every package of a
// loaded program.
type Analyzer struct {
	// Name is the rule identifier used in reports and allow directives.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the conventional file:line:col: rule: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries one analyzer's view of one package plus the whole
// program (for cross-package facts such as kernel aliasing contracts).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos under the pass's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Prog.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite, in report order.
func All() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		WGBalance,
	}
}

// ByName resolves a comma-separated rule list against All, erroring on
// unknown names.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown rule %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// --- shared type-query helpers used by the analyzers ---

// hasPathSuffix reports whether the import path is suffix itself or
// ends in "/"+suffix. Matching by suffix keeps the analyzers working
// both on the real module and on golden-test fixture trees.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeFunc resolves the statically-called function or method of a
// call expression, or nil for builtins, conversions and indirect calls
// through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// namedOf unwraps pointers and returns the named type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// recvNamed returns the named type of a method's receiver, or nil for
// plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// isMethodOn reports whether fn is a method named name on the named
// type typeName declared in a package whose path ends in pkgSuffix.
func isMethodOn(fn *types.Func, name, typeName, pkgSuffix string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	recv := recvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil {
		return false
	}
	return recv.Obj().Name() == typeName && hasPathSuffix(recv.Obj().Pkg().Path(), pkgSuffix)
}

// eqSet reports whether two sets hold the same members.
func eqSet[K comparable](a, b map[K]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// identObj resolves an identifier to its object (definition or use).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
