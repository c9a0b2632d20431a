// Package dataflow is the flow-sensitive backbone of the lint suite:
// an intraprocedural control-flow graph over go/ast function bodies, a
// generic forward fixpoint solver, and the symbolic shape lattice used
// by the tensor-shape analyses. Like the rest of internal/lint it is
// stdlib-only (go/ast + go/token); type information stays in the
// analyzers, which inject the few semantic predicates the builder
// needs (such as "is this call the builtin panic").
package dataflow

import (
	"go/ast"
	"go/token"
)

// BlockKind classifies the special blocks of a graph.
type BlockKind int

const (
	// KindBody is an ordinary straight-line block.
	KindBody BlockKind = iota
	// KindEntry is the function entry block.
	KindEntry
	// KindExit is the single synthetic exit block.
	KindExit
	// KindDefers is the synthetic block holding the function's defer
	// statements in reverse registration order; every return, panic and
	// fall-off-the-end path flows through it on the way to the exit.
	KindDefers
)

// Block is one straight-line run of statements.
type Block struct {
	Index int
	Kind  BlockKind
	// Stmts are the block's statements in execution order. The defers
	// block repeats the function's defer statements, wrapped in DeferRun
	// nodes, in reverse registration order — the order they run at exit.
	Stmts []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	Exit  *Block
	// Defers holds the synthetic defers block, or nil when the function
	// body contains no defer statements.
	Defers *Block
	Blocks []*Block
	// PanicExits are the blocks that leave the function by panicking
	// (their edge to the defers/exit block is a panic edge, not a
	// return edge). Analyses that only care about normal termination
	// can treat facts flowing out of these blocks specially.
	PanicExits []*Block
}

// builder accumulates blocks while walking one function body.
type builder struct {
	g       *Graph
	cur     *Block
	isPanic func(*ast.CallExpr) bool
	defers  []*ast.DeferStmt
	// loops is the stack of enclosing break/continue targets.
	loops []loopFrame
	// labels maps label names to their target blocks (for goto and
	// labeled break/continue).
	labels map[string]*labelFrame
	// gotos are forward gotos resolved after the walk.
	gotos []pendingGoto
	// leaves are the function-exiting blocks, wired to the defers/exit
	// block once every defer is known.
	leaves []leave
	// fallNext is the next case body while building a switch, the
	// target of a fallthrough statement.
	fallNext *Block
}

type loopFrame struct {
	label         string
	breakTarget   *Block
	continueBlock *Block // nil inside switch/select frames
	isSwitch      bool
}

type labelFrame struct {
	block *Block // target of goto (start of the labeled statement)
}

type pendingGoto struct {
	from  *Block
	label string
}

// New builds the control-flow graph of fn's body. isPanic reports
// whether a call expression is a call to the builtin panic (the builder
// is type-oblivious, so the caller supplies the predicate; nil means no
// call panics). A function without a body yields a nil graph.
func New(fn *ast.FuncDecl, isPanic func(*ast.CallExpr) bool) *Graph {
	if fn == nil || fn.Body == nil {
		return nil
	}
	return build(fn.Body, isPanic)
}

// NewFromBlock builds a graph from a bare block statement (used for
// func literals).
func NewFromBlock(body *ast.BlockStmt, isPanic func(*ast.CallExpr) bool) *Graph {
	if body == nil {
		return nil
	}
	return build(body, isPanic)
}

func build(body *ast.BlockStmt, isPanic func(*ast.CallExpr) bool) *Graph {
	if isPanic == nil {
		isPanic = func(*ast.CallExpr) bool { return false }
	}
	b := &builder{
		g:       &Graph{},
		isPanic: isPanic,
		labels:  make(map[string]*labelFrame),
	}
	entry := b.newBlock(KindEntry)
	b.g.Entry = entry
	b.cur = entry
	b.stmtList(body.List)

	// The synthetic exit; defers (if any) interpose between every
	// function-leaving edge and the exit.
	exit := b.newBlock(KindExit)
	b.g.Exit = exit
	if len(b.defers) > 0 {
		d := b.newBlock(KindDefers)
		for i := len(b.defers) - 1; i >= 0; i-- {
			d.Stmts = append(d.Stmts, &DeferRun{D: b.defers[i]})
		}
		b.g.Defers = d
		b.edge(d, exit)
	}
	// Fall off the end of the body.
	b.leaves = append(b.leaves, leave{from: b.cur})
	// Re-point every recorded leave edge through the defers block.
	for _, lv := range b.leaves {
		target := exit
		if b.g.Defers != nil {
			target = b.g.Defers
		}
		b.edge(lv.from, target)
		if lv.panics {
			b.g.PanicExits = append(b.g.PanicExits, lv.from)
		}
	}
	// Resolve forward gotos.
	for _, pg := range b.gotos {
		if lf, ok := b.labels[pg.label]; ok && lf.block != nil {
			b.edge(pg.from, lf.block)
		}
	}
	return b.g
}

// leaves records blocks that exit the function (return, panic, end of
// body); they are wired to the defers/exit block once all defers are
// known.
type leave struct {
	from   *Block
	panics bool
}

// DeferRun wraps a defer statement inside the synthetic defers block: the
// *ast.DeferStmt node a transfer function sees in a body block marks the
// registration point, while a *DeferRun in the defers block marks the
// deferred call actually executing on the way out of the function.
type DeferRun struct {
	D *ast.DeferStmt
}

// Pos implements ast.Node by delegating to the wrapped statement.
func (d *DeferRun) Pos() token.Pos { return d.D.Pos() }

// End implements ast.Node by delegating to the wrapped statement.
func (d *DeferRun) End() token.Pos { return d.D.End() }

func (b *builder) newBlock(kind BlockKind) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// dead starts a fresh unreachable block, used after return/panic/branch
// so trailing statements do not merge into live paths.
func (b *builder) dead() {
	b.cur = b.newBlock(KindBody)
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, "")
	case *ast.TypeSwitchStmt:
		b.append(s.Assign)
		b.switchStmt(s.Init, nil, s.Body, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.ReturnStmt:
		b.append(s)
		b.leaves = append(b.leaves, leave{from: b.cur})
		b.dead()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.DeferStmt:
		b.append(s)
		b.defers = append(b.defers, s)
	case *ast.ExprStmt:
		b.append(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.isPanic(call) {
			b.leaves = append(b.leaves, leave{from: b.cur, panics: true})
			b.dead()
		}
	default:
		// Assignments, declarations, go statements, sends, inc/dec:
		// straight-line.
		b.append(s)
	}
}

func (b *builder) append(n ast.Node) {
	b.cur.Stmts = append(b.cur.Stmts, n)
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.append(s.Init)
	}
	head := b.cur
	then := b.newBlock(KindBody)
	after := b.newBlock(KindBody)
	b.edge(head, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.edge(b.cur, after)
	if s.Else != nil {
		els := b.newBlock(KindBody)
		b.edge(head, els)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after)
	} else {
		b.edge(head, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.append(s.Init)
	}
	head := b.newBlock(KindBody)
	body := b.newBlock(KindBody)
	after := b.newBlock(KindBody)
	post := b.newBlock(KindBody)
	b.edge(b.cur, head)
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}
	b.loops = append(b.loops, loopFrame{label: label, breakTarget: after, continueBlock: post})
	b.cur = body
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.edge(b.cur, post)
	if s.Post != nil {
		post.Stmts = append(post.Stmts, s.Post)
	}
	b.edge(post, head)
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock(KindBody)
	body := b.newBlock(KindBody)
	after := b.newBlock(KindBody)
	b.edge(b.cur, head)
	// The range statement itself (key/value binding) executes at the
	// head of each iteration.
	head.Stmts = append(head.Stmts, s)
	b.edge(head, body)
	b.edge(head, after)
	b.loops = append(b.loops, loopFrame{label: label, breakTarget: after, continueBlock: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.edge(b.cur, head)
	b.cur = after
}

func (b *builder) switchStmt(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) {
	if init != nil {
		b.append(init)
	}
	if tag != nil {
		b.append(&ast.ExprStmt{X: tag})
	}
	head := b.cur
	after := b.newBlock(KindBody)
	b.loops = append(b.loops, loopFrame{label: label, breakTarget: after, isSwitch: true})

	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		cb := b.newBlock(KindBody)
		b.edge(head, cb)
		caseBlocks = append(caseBlocks, cb)
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		b.fallNext = nil
		if i+1 < len(caseBlocks) {
			b.fallNext = caseBlocks[i+1]
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.fallNext = nil
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.newBlock(KindBody)
	b.loops = append(b.loops, loopFrame{label: label, breakTarget: after, isSwitch: true})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		cb := b.newBlock(KindBody)
		b.edge(head, cb)
		b.cur = cb
		if cc.Comm != nil {
			b.append(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if label == "" || f.label == label {
				b.edge(b.cur, f.breakTarget)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			f := b.loops[i]
			if f.isSwitch {
				continue
			}
			if label == "" || f.label == label {
				b.edge(b.cur, f.continueBlock)
				break
			}
		}
	case token.GOTO:
		if lf, ok := b.labels[label]; ok && lf.block != nil {
			b.edge(b.cur, lf.block)
		} else {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		}
	case token.FALLTHROUGH:
		if b.fallNext != nil {
			b.edge(b.cur, b.fallNext)
		}
	}
	b.dead()
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	target := b.newBlock(KindBody)
	b.edge(b.cur, target)
	b.cur = target
	b.labels[s.Label.Name] = &labelFrame{block: target}
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner.Init, inner.Tag, inner.Body, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.append(inner.Assign)
		b.switchStmt(inner.Init, nil, inner.Body, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}
