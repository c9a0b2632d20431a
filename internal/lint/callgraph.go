package lint

import (
	"go/ast"
	"go/types"

	"quickdrop/internal/lint/dataflow"
)

// CallGraph returns the program-wide static call graph: one node per
// module function with a body, one edge per statically-resolved call
// to another module function (calls through function values, interface
// methods, and out-of-module callees produce no edge — analyzers built
// on summaries must treat a missing edge as "no modeled effect"). The
// graph is built once and shared by every analyzer; construction order
// is package order, file order, declaration order, so node and edge
// order — and everything derived from them — is deterministic.
//
// Calls inside nested function literals are attributed to the
// enclosing declaration: a callee's locks, taken in a closure, count
// in the enclosing function's summary.
func (p *Program) CallGraph() *dataflow.CallGraph[*types.Func] {
	p.cgOnce.Do(func() {
		g := dataflow.NewCallGraph[*types.Func]()
		for _, pkg := range p.Packages {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
					if !ok || fn == nil {
						continue
					}
					g.AddNode(fn)
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						callee := calleeFunc(pkg.Info, call)
						if callee == nil {
							return true
						}
						if _, inModule := p.Decls[callee]; inModule {
							g.AddEdge(fn, callee)
						}
						return true
					})
				}
			}
		}
		p.cg = g
	})
	return p.cg
}
