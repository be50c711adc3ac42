// Package cfg builds intraprocedural control-flow graphs over ast.Stmt and
// runs forward dataflow analyses over them.
//
// The syntax-level analyzers (determinism, errwrap, …) see one statement at
// a time; the invariants the repo now stakes correctness on — Lock/Unlock
// balance across early returns, guarded fields touched only under their
// mutex, goroutine join evidence, allocation discipline inside loops — are
// properties of *paths*, not statements. This package is the flow-sensitive layer those analyzers
// (lockflow, leakcheck, hotpath) stand on: a basic-block graph with edges for
// if/for/range/switch/select/goto and explicit defer capture, plus a
// worklist fixpoint over a pluggable join semilattice.
//
// The builder is deliberately syntax-only (no go/types): blocks carry
// ast.Stmt values and the analyzers resolve meaning through their own Pass.
// Panic calls end their block without an Exit edge, so a path that provably
// panics is not reported as "falls off the end while holding a lock";
// every return and the fall-off end of the body flow into g.Exit.
//
// Like the rest of internal/lint this is a reimplementation of the
// golang.org/x/tools vocabulary (go/cfg) reduced to what kwslint needs; the
// build environment vendors nothing.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal straight-line statement sequence.
// Control statements (if/for/switch/…) contribute their init/condition to the
// block that evaluates them; their bodies live in successor blocks.
type Block struct {
	// Index is the block's position in Graph.Blocks, stable across builds of
	// the same function — diagnostics and golden tests key off it.
	Index int
	// Kind describes why the block exists ("entry", "if.then", "for.body",
	// …); it is documentation for humans and golden tests, not semantics.
	Kind string
	// Stmts are the block's statements in source order. Control headers
	// appear as their own entry (the *ast.IfStmt itself ends a block, with
	// its Cond still unevaluated in successors).
	Stmts []ast.Stmt
	// Succs and Preds are the control-flow edges.
	Succs, Preds []*Block
}

// addEdge links b -> s.
func addEdge(b, s *Block) {
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// Graph is the CFG of one function body.
type Graph struct {
	// Entry is the first block; Exit is the single synthetic exit every
	// return and the fall-off end of the body flow into.
	Entry, Exit *Block
	// Blocks lists every block in creation order (Entry first, Exit last
	// position is not guaranteed); unreachable blocks are retained so
	// diagnostics can still address dead code.
	Blocks []*Block
	// Defers collects every defer statement in the function, in source
	// order. Deferred calls run at every exit; flow-sensitive analyses
	// treat them as pending effects rather than edges.
	Defers []*ast.DeferStmt
}

// New builds the CFG of body. body may be the body of an *ast.FuncDecl or an
// *ast.FuncLit; a nil body yields a trivial entry->exit graph.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = &Block{Kind: "exit"} // indexed after building, see below
	b.cur = b.g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// The fall-off end of the body returns.
	if b.cur != nil {
		addEdge(b.cur, b.g.Exit)
	}
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

// builder carries the construction state: the current block and the branch
// target stack.
type builder struct {
	g   *Graph
	cur *Block
	// targets is the innermost break/continue scope.
	targets *targets
	// labels maps label names to their pending blocks, created on first
	// reference (goto may precede the label).
	labels map[string]*labelBlock
}

// targets is one level of the break/continue scope stack.
type targets struct {
	tail      *targets
	breakOK   bool // switch/select define break but not continue
	brk, cont *Block
	label     string
}

// labelBlock tracks one label's jump targets.
type labelBlock struct {
	goto_ *Block // target of goto L (the labeled statement itself)
	brk   *Block // target of break L, nil until the labeled loop is built
	cont  *Block // target of continue L
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock begins a new current block without linking it; callers add the
// edges. A nil argument marks unreachable code after return/goto: statements
// still land in a fresh predecessor-less block.
func (b *builder) startBlock(blk *Block) {
	b.cur = blk
}

func (b *builder) labelled(name string) *labelBlock {
	if b.labels == nil {
		b.labels = make(map[string]*labelBlock)
	}
	lb, ok := b.labels[name]
	if !ok {
		lb = &labelBlock{goto_: b.newBlock("label." + name)}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the immediately enclosing label
// name ("" when unlabeled); loops consume it for break/continue targets.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelled(s.Label.Name)
		addEdge(b.cur, lb.goto_)
		b.startBlock(lb.goto_)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, s) // the condition evaluation
		then := b.newBlock("if.then")
		done := b.newBlock("if.done")
		addEdge(b.cur, then)
		if s.Else != nil {
			els := b.newBlock("if.else")
			addEdge(b.cur, els)
			b.startBlock(els)
			b.stmt(s.Else, "")
			if b.cur != nil {
				addEdge(b.cur, done)
			}
		} else {
			addEdge(b.cur, done)
		}
		b.startBlock(then)
		b.stmtList(s.Body.List)
		if b.cur != nil {
			addEdge(b.cur, done)
		}
		b.startBlock(done)

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		head := b.newBlock("for.head")
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		addEdge(b.cur, head)
		head.Stmts = append(head.Stmts, s) // the condition evaluation
		addEdge(head, body)
		if s.Cond != nil {
			addEdge(head, done) // infinite for {} has no exit edge
		}
		b.pushTargets(label, done, post)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		if b.cur != nil {
			addEdge(b.cur, post)
		}
		if s.Post != nil {
			b.startBlock(post)
			post.Stmts = append(post.Stmts, s.Post)
			addEdge(post, head)
		}
		b.popTargets()
		b.startBlock(done)

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		addEdge(b.cur, head)
		head.Stmts = append(head.Stmts, s) // the next-element evaluation
		addEdge(head, body)
		addEdge(head, done)
		b.pushTargets(label, done, head)
		b.startBlock(body)
		b.stmtList(s.Body.List)
		if b.cur != nil {
			addEdge(b.cur, head)
		}
		b.popTargets()
		b.startBlock(done)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.switchBody(s, s.Body, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, s.Assign)
		b.switchBody(s, s.Body, label)

	case *ast.SelectStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		done := b.newBlock("select.done")
		entry := b.cur
		b.pushSwitchTargets(label, done)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			blk := b.newBlock("select.case")
			if clause.Comm != nil {
				blk.Stmts = append(blk.Stmts, clause.Comm)
			}
			addEdge(entry, blk)
			b.startBlock(blk)
			b.stmtList(clause.Body)
			if b.cur != nil {
				addEdge(b.cur, done)
			}
		}
		b.popTargets()
		b.startBlock(done)

	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		addEdge(b.cur, b.g.Exit)
		b.startBlock(b.newBlock("unreachable.return"))

	case *ast.BranchStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		switch s.Tok {
		case token.GOTO:
			addEdge(b.cur, b.labelled(s.Label.Name).goto_)
		case token.BREAK:
			if t := b.findBreak(s.Label); t != nil {
				addEdge(b.cur, t)
			}
		case token.CONTINUE:
			if t := b.findContinue(s.Label); t != nil {
				addEdge(b.cur, t)
			}
			// token.FALLTHROUGH is handled structurally by switchBody.
		}
		if s.Tok != token.FALLTHROUGH {
			b.startBlock(b.newBlock("unreachable.branch"))
		}

	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.cur.Stmts = append(b.cur.Stmts, s)

	case *ast.ExprStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if isPanic(s.X) {
			// A panicking path leaves the function without reaching Exit;
			// statements after it are unreachable.
			b.startBlock(b.newBlock("unreachable.panic"))
		}

	default:
		// Assignments, declarations, sends, inc/dec, go, empty: straight-line.
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

// switchBody builds the clause structure shared by switch and type switch.
func (b *builder) switchBody(header ast.Stmt, body *ast.BlockStmt, label string) {
	b.cur.Stmts = append(b.cur.Stmts, header)
	entry := b.cur
	done := b.newBlock("switch.done")
	b.pushSwitchTargets(label, done)

	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock("switch.case")
		if clauses[i].(*ast.CaseClause).List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		addEdge(entry, done) // no case may match
	}
	for i, cc := range clauses {
		clause := cc.(*ast.CaseClause)
		addEdge(entry, blocks[i])
		b.startBlock(blocks[i])
		b.stmtList(clause.Body)
		if b.cur != nil {
			if fallsThrough(clause.Body) && i+1 < len(blocks) {
				addEdge(b.cur, blocks[i+1])
			} else {
				addEdge(b.cur, done)
			}
		}
	}
	b.popTargets()
	b.startBlock(done)
}

// fallsThrough reports whether a case body ends in a fallthrough statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *builder) pushTargets(label string, brk, cont *Block) {
	b.targets = &targets{tail: b.targets, breakOK: true, brk: brk, cont: cont, label: label}
	if label != "" {
		lb := b.labelled(label)
		lb.brk, lb.cont = brk, cont
	}
}

// pushSwitchTargets defines break (switch/select) without continue.
func (b *builder) pushSwitchTargets(label string, brk *Block) {
	b.targets = &targets{tail: b.targets, breakOK: true, brk: brk, label: label}
	if label != "" {
		b.labelled(label).brk = brk
	}
}

func (b *builder) popTargets() { b.targets = b.targets.tail }

func (b *builder) findBreak(label *ast.Ident) *Block {
	if label != nil {
		if lb, ok := b.labels[label.Name]; ok {
			return lb.brk
		}
		return nil
	}
	for t := b.targets; t != nil; t = t.tail {
		if t.breakOK {
			return t.brk
		}
	}
	return nil
}

func (b *builder) findContinue(label *ast.Ident) *Block {
	if label != nil {
		if lb, ok := b.labels[label.Name]; ok {
			return lb.cont
		}
		return nil
	}
	for t := b.targets; t != nil; t = t.tail {
		if t.cont != nil {
			return t.cont
		}
	}
	return nil
}

// isPanic recognizes a direct call to the builtin panic. This is syntactic:
// a shadowed panic would be misread, which the repo does not do.
func isPanic(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Reachable returns the blocks reachable from Entry, in Index order.
// Dataflow iterates these; diagnostics over unreachable code are the parser's
// and vet's business, not a fixpoint's.
func (g *Graph) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	stack := []*Block{g.Entry}
	seen[g.Entry.Index] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s)
			}
		}
	}
	out := make([]*Block, 0, len(g.Blocks))
	for _, blk := range g.Blocks {
		if seen[blk.Index] {
			out = append(out, blk)
		}
	}
	return out
}

// LoopBlocks returns the set of blocks inside at least one loop: for every
// back edge u->v found by depth-first search, the natural loop body {v} ∪
// {blocks reaching u without passing v}. Goto-made irreducible regions are
// approximated (the DFS ancestor test still finds their retreating edges),
// which errs toward reporting — the right direction for a hot-path lint.
func (g *Graph) LoopBlocks() map[*Block]bool {
	const (
		white = iota
		grey
		black
	)
	color := make([]int, len(g.Blocks))
	loops := make(map[*Block]bool)

	var backEdges [][2]*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		color[b.Index] = grey
		for _, s := range b.Succs {
			switch color[s.Index] {
			case white:
				dfs(s)
			case grey:
				backEdges = append(backEdges, [2]*Block{b, s})
			}
		}
		color[b.Index] = black
	}
	dfs(g.Entry)

	for _, e := range backEdges {
		tail, head := e[0], e[1]
		// Walk predecessors from the tail, stopping at the head; each back
		// edge gets its own visited set so overlapping loops mark fully.
		body := map[*Block]bool{head: true}
		stack := []*Block{tail}
		for len(stack) > 0 {
			blk := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if body[blk] {
				continue
			}
			body[blk] = true
			for _, p := range blk.Preds {
				stack = append(stack, p)
			}
		}
		for blk := range body {
			loops[blk] = true
		}
	}
	return loops
}
