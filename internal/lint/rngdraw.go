package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RNGDraw enforces the seeded-RNG draw-count discipline that keeps a
// nil fault plan byte-identical to no fault layer: once any code has
// consumed values from a shared seeded stream, every later consumer
// sees a shifted stream, so the NUMBER of draws must never depend on
// anything but the seed itself. The concrete conventions (package doc
// of internal/fault): plans with per-delivery randomness draw a fixed
// count per consultation regardless of outcome, and conditionals that
// skip a draw must either terminate the path (early return — the
// combinator pattern, documented to consume no randomness) or burn the
// same number of draws on the other side. The analyzer checks each
// conditional in the scoped packages: branches that rejoin must draw
// equal counts, and a draw on the short-circuited side of && / || is
// consumed only when the left side passes, which hides an imbalance
// inside a single expression.
var RNGDraw = &Analyzer{
	Name: "rngdraw",
	Doc: "in internal/fault, internal/ess, internal/station, and internal/core, " +
		"branches of a conditional that both fall through must consume the same " +
		"number of seeded-RNG draws (*sim.RNG / *math/rand.Rand method calls), and a " +
		"draw must not sit on the short-circuited side of && or ||; early-returning " +
		"branches are exempt (the documented consume-nothing combinator pattern)",
	Run: runRNGDraw,
}

// rngDrawScope lists the packages carrying the draw-count discipline.
// internal/core is in scope for the refresh-jitter draw in
// Network.stationConfig: any new draw site in station assembly must
// keep the fixed-count convention, so a run's RNG streams do not
// depend on which knobs a station happened to take.
var rngDrawScope = map[string]bool{
	"internal/fault":   true,
	"internal/ess":     true,
	"internal/station": true,
	"internal/core":    true,
}

func runRNGDraw(p *Pass) error {
	if !rngDrawScope[p.RelPath()] {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			countDraws(p, fn.Body)
		}
	}
	return nil
}

// drawKind classifies a construct's draw consumption.
type drawKind int

const (
	drawExact      drawKind = iota // consumes exactly n draws
	drawOpaque                     // unknown (per-iteration draws, rng escapes into a call)
	drawTerminates                 // the path does not rejoin (return/branch/never-returns)
)

// drawCount is the lattice value: how many seeded draws a construct
// consumes on the way to its natural exit.
type drawCount struct {
	kind drawKind
	n    int
}

func exactDraws(n int) drawCount { return drawCount{kind: drawExact, n: n} }

// plus sequences two counts.
func (d drawCount) plus(o drawCount) drawCount {
	switch {
	case d.kind == drawTerminates:
		return d
	case o.kind == drawTerminates:
		return drawCount{kind: drawTerminates}
	case d.kind == drawOpaque || o.kind == drawOpaque:
		return drawCount{kind: drawOpaque}
	default:
		return exactDraws(d.n + o.n)
	}
}

// countDraws walks a statement list structurally, reporting unbalanced
// conditionals as it goes, and returns the list's own draw count.
func countDraws(p *Pass, body *ast.BlockStmt) drawCount {
	total := exactDraws(0)
	for _, s := range body.List {
		total = total.plus(countStmtDraws(p, s))
		if total.kind == drawTerminates {
			break
		}
	}
	return total
}

// countStmtDraws computes one statement's draw count, recursing into
// compound statements and reporting imbalances.
func countStmtDraws(p *Pass, s ast.Stmt) drawCount {
	switch s := s.(type) {
	case nil:
		return exactDraws(0)
	case *ast.BlockStmt:
		return countDraws(p, s)
	case *ast.ReturnStmt:
		return countExprDraws(p, s).plus(drawCount{kind: drawTerminates})
	case *ast.BranchStmt:
		// break/continue/goto leave the conditional; like return, the
		// path does not rejoin its sibling branch.
		return drawCount{kind: drawTerminates}
	case *ast.IfStmt:
		c := exactDraws(0)
		if s.Init != nil {
			c = c.plus(countStmtDraws(p, s.Init))
		}
		c = c.plus(countCondDraws(p, s.Cond))
		thenC := countDraws(p, s.Body)
		elseC := exactDraws(0)
		if s.Else != nil {
			elseC = countStmtDraws(p, s.Else)
		}
		agreed := mergeBranch(p, s.Pos(), drawCount{kind: drawExact, n: -1}, thenC, "branches of this if")
		agreed = mergeBranch(p, s.Pos(), agreed, elseC, "branches of this if")
		if agreed.kind == drawExact && agreed.n == -1 {
			agreed = exactDraws(0) // both branches terminated
		}
		return c.plus(agreed)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return countSwitchDraws(p, s)
	case *ast.ForStmt:
		c := exactDraws(0)
		if s.Init != nil {
			c = c.plus(countStmtDraws(p, s.Init))
		}
		inner := exactDraws(0)
		if s.Cond != nil {
			inner = inner.plus(countCondDraws(p, s.Cond))
		}
		inner = inner.plus(countDraws(p, s.Body))
		if s.Post != nil {
			inner = inner.plus(countStmtDraws(p, s.Post))
		}
		if inner.kind != drawExact || inner.n != 0 {
			// Per-iteration draws: the total depends on the trip count,
			// which the discipline requires to be seed- or config-derived.
			// That is beyond a static count — opaque, not a finding.
			return drawCount{kind: drawOpaque}
		}
		return c
	case *ast.RangeStmt:
		inner := countDraws(p, s.Body)
		if inner.kind != drawExact || inner.n != 0 {
			return drawCount{kind: drawOpaque}
		}
		return countCondDraws(p, s.X)
	case *ast.SelectStmt, *ast.GoStmt, *ast.DeferStmt:
		// Draws behind nondeterministic choice or deferred execution are
		// beyond structural counting; conservatively opaque.
		if stmtHasDraw(p, s) {
			return drawCount{kind: drawOpaque}
		}
		return exactDraws(0)
	case *ast.LabeledStmt:
		return countStmtDraws(p, s.Stmt)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isNeverReturnsCall(p.TypesInfo, call) {
			return countExprDraws(p, s).plus(drawCount{kind: drawTerminates})
		}
		return countExprDraws(p, s)
	default:
		return countExprDraws(p, s)
	}
}

// countSwitchDraws folds all case bodies of a switch: rejoining cases
// must agree on their draw count.
func countSwitchDraws(p *Pass, s ast.Stmt) drawCount {
	var init ast.Stmt
	var tag ast.Expr
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, tag, body = s.Init, s.Tag, s.Body
	case *ast.TypeSwitchStmt:
		init, body = s.Init, s.Body
	}
	c := exactDraws(0)
	if init != nil {
		c = c.plus(countStmtDraws(p, init))
	}
	if tag != nil {
		c = c.plus(countCondDraws(p, tag))
	}
	agreed := drawCount{kind: drawExact, n: -1}
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		bodyC := countDraws(p, &ast.BlockStmt{List: cc.Body})
		agreed = mergeBranch(p, s.Pos(), agreed, bodyC, "cases of this switch")
	}
	if !hasDefault {
		// A missing default is an implicit empty rejoining case.
		agreed = mergeBranch(p, s.Pos(), agreed, exactDraws(0), "cases of this switch")
	}
	if agreed.kind == drawExact && agreed.n == -1 {
		agreed = exactDraws(0)
	}
	return c.plus(agreed)
}

// mergeBranch folds one rejoining branch into the agreed count,
// reporting the first disagreement at pos. The sentinel n == -1 marks
// "no rejoining branch seen yet".
func mergeBranch(p *Pass, pos token.Pos, agreed, branch drawCount, what string) drawCount {
	if branch.kind == drawTerminates {
		return agreed // non-rejoining branches are exempt by design
	}
	if branch.kind == drawOpaque || agreed.kind == drawOpaque {
		return drawCount{kind: drawOpaque}
	}
	if agreed.n == -1 {
		return branch
	}
	if agreed.n != branch.n {
		p.Reportf(pos, "%s draw %d vs %d values from the seeded RNG; a branch-dependent draw count shifts the stream for every later consumer — balance the branches or burn the difference", what, agreed.n, branch.n)
		// Keep the first count so one imbalance reports once.
	}
	return agreed
}

// countExprDraws counts draws in the expressions a simple statement
// evaluates, reporting short-circuit-guarded draws.
func countExprDraws(p *Pass, s ast.Node) drawCount {
	c := exactDraws(0)
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if op := n.Op.String(); op == "&&" || op == "||" {
				// The left side always evaluates; the right side only
				// sometimes. Count the left normally, flag draws on the right.
				c = c.plus(countCondDraws(p, n.X))
				reportShortCircuitDraws(p, n.Y)
				return false
			}
		case *ast.CallExpr:
			if isRNGDrawCall(p.TypesInfo, n) {
				c = c.plus(exactDraws(1))
			} else if rngEscapesInto(p.TypesInfo, n) {
				c = c.plus(drawCount{kind: drawOpaque})
			}
		case *ast.FuncLit:
			return false // its body runs elsewhere
		}
		return true
	})
	return c
}

// countCondDraws counts draws in one expression (conditions, range and
// switch tags), with short-circuit reporting.
func countCondDraws(p *Pass, e ast.Expr) drawCount {
	return countExprDraws(p, &ast.ExprStmt{X: e})
}

// reportShortCircuitDraws flags every draw (or rng escape) under a
// conditionally-evaluated operand.
func reportShortCircuitDraws(p *Pass, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRNGDrawCall(p.TypesInfo, call) || rngEscapesInto(p.TypesInfo, call) {
			p.Reportf(call.Pos(), "seeded-RNG draw on the short-circuited side of && / || is consumed only when the left side passes; hoist the draw so the stream position is branch-independent")
			return false
		}
		return true
	})
}

// stmtHasDraw reports whether any draw or rng escape occurs under s.
func stmtHasDraw(p *Pass, s ast.Node) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if isRNGDrawCall(p.TypesInfo, call) || rngEscapesInto(p.TypesInfo, call) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isRNGDrawCall reports whether call is a method call on a seeded
// generator (*sim.RNG or *math/rand.Rand / rand/v2) — one draw event.
// Call COUNT is the unit: Perm draws more underlying values than
// Float64, but a count mismatch in calls is exactly the imbalance the
// discipline forbids.
func isRNGDrawCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := info.TypeOf(sel.X)
	return isSeededRNG(t)
}

// isSeededRNG reports whether t is a pointer to a seeded generator.
func isSeededRNG(t types.Type) bool {
	if t == nil {
		return false
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return obj.Name() == "Rand"
	}
	return obj.Name() == "RNG" && isModuleSimPkg(obj.Pkg().Path())
}

// isModuleSimPkg matches the module's internal/sim package without
// hard-coding the module path (fixtures load under synthetic paths).
func isModuleSimPkg(path string) bool {
	const suffix = "/internal/sim"
	return path == "repro/internal/sim" ||
		len(path) > len(suffix) && path[len(path)-len(suffix):] == suffix
}

// rngEscapesInto reports whether the call receives a seeded generator
// as an argument — the callee may draw any number of values, so the
// caller's count becomes opaque from here.
func rngEscapesInto(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if isSeededRNG(info.TypeOf(a)) {
			return true
		}
	}
	return false
}

// isNeverReturnsCall reports whether the statement call terminates the
// path (panic and friends); shared with the CFG builder.
func isNeverReturnsCall(info *types.Info, call *ast.CallExpr) bool {
	b := &cfgBuilder{info: info}
	return b.neverReturns(call)
}
