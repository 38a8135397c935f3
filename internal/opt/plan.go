package opt

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"energydb/internal/exec"
)

// Variant is one physical placement of a relation (e.g. "col/lz",
// "col/raw", "row/raw"). A relation may offer several; access-path
// selection chooses among them per query and per objective — this choice
// alone reproduces the Figure 2 flip.
type Variant struct {
	Name string
	ST   *exec.StoredTable
}

// Placement is everything the optimizer knows about one relation.
type Placement struct {
	Variants []Variant
	Stats    *TableStats
}

// Catalog maps relation names to placements.
type Catalog struct {
	rels map[string]*Placement
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{rels: make(map[string]*Placement)} }

// Add registers a relation.
func (c *Catalog) Add(name string, p *Placement) { c.rels[name] = p }

// Get returns a relation's placement.
func (c *Catalog) Get(name string) (*Placement, error) {
	p, ok := c.rels[name]
	if !ok {
		return nil, fmt.Errorf("opt: unknown relation %q", name)
	}
	return p, nil
}

// Names lists registered relations, sorted: callers emit the list (plan
// diagnostics, catalogs in explain output), so map order must not leak.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.rels))
	for n := range c.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PhysNode is a node of a physical plan: it knows its output columns, its
// estimated cardinality, its cumulative dual cost, and how to build the
// executable operator tree.
type PhysNode interface {
	Columns() []ColRef
	Card() float64
	RowBytes() float64
	Cost() Cost
	// MaxDOP reports the widest degree of parallelism this subtree will
	// use — the cores it can actually occupy at once. Admission returns
	// the unused remainder of a query's grant once the plan is chosen, so
	// an under-report here would oversubscribe the free pool.
	MaxDOP() int
	Build(ctx *exec.Ctx) (exec.Operator, error)
	// Children lists the node's inputs in the order EXPLAIN shows them;
	// every walk over a plan goes through it.
	Children() []PhysNode
	// describe is the node's one rendering for EXPLAIN: the operator name
	// and detail are ExplainRows' first two columns, notes the
	// annotations only Explain's text carries (cols=, dop=, build_dop=,
	// probe_dop=), each with a leading space.
	describe() (op, detail, notes string)
}

// colIndex locates a ColRef in a node's output, or -1.
func colIndex(cols []ColRef, c ColRef) int {
	for i, x := range cols {
		if x == c {
			return i
		}
	}
	return -1
}

// fragSource is implemented by physical nodes that can compile themselves
// into dop parallel fragment pipelines sharing one morsel dispenser, so
// exchange consumers — the Parallel streaming merge, aggregation and join
// builds — can parallelise the whole pipeline above the scan rather than
// just the scan itself: scans, filters, projections and hash-join probe
// sides all fragment. Fewer fragments than dop come back when the input
// cannot divide that far — down to the one-fragment set, which is the
// node's serial operator tree.
type fragSource interface {
	BuildFragments(ctx *exec.Ctx, dop int) (exec.Fragments, error)
	// pipelineWork decomposes the node's cost for the DOP sweep when its
	// whole pipeline fragments end to end; ok=false means BuildFragments
	// would not fragment it either (see pipeWork).
	pipelineWork(o *optimizer) (pw pipeWork, ok bool)
}

// buildFragments compiles n dop ways when it can fragment and dop asks
// for it, and otherwise into the one-fragment set of its serial tree.
func buildFragments(ctx *exec.Ctx, n PhysNode, dop int) (exec.Fragments, error) {
	if fs, ok := n.(fragSource); ok && dop > 1 {
		return fs.BuildFragments(ctx, dop)
	}
	op, err := n.Build(ctx)
	if err != nil {
		return exec.Fragments{}, err
	}
	return exec.OneFragment(op), nil
}

// PScan scans one placement variant with pushed-down predicates, possibly
// as a DOP-way parallel morsel-driven scan.
type PScan struct {
	Alias   string
	Rel     string
	Variant Variant
	Read    []int // source schema column indexes fetched
	Emit    []int // positions within Read forming the output
	Preds   []PredIR
	DOP     int // degree of parallelism; <= 1 builds the serial scan

	cols []ColRef
	card float64
	cost Cost
}

// Columns implements PhysNode.
func (s *PScan) Columns() []ColRef { return s.cols }

// Card implements PhysNode.
func (s *PScan) Card() float64 { return s.card }

// RowBytes implements PhysNode.
func (s *PScan) RowBytes() float64 {
	var w float64
	for _, e := range s.Emit {
		w += float64(s.Variant.ST.Tab.Schema.Cols[s.Read[e]].Width)
	}
	return w
}

// Cost implements PhysNode.
func (s *PScan) Cost() Cost { return s.cost }

// MaxDOP implements PhysNode.
func (s *PScan) MaxDOP() int { return max(1, s.DOP) }

// Build implements PhysNode: the scan's fragments under a Parallel merge,
// or the serial scan itself when DOP (or the table) is too small to split.
func (s *PScan) Build(ctx *exec.Ctx) (exec.Operator, error) {
	fr, err := s.BuildFragments(ctx, s.DOP)
	if err != nil {
		return nil, err
	}
	return fr.Stream(), nil
}

// scanOp constructs one scan over the variant with its own predicate
// instance (predicates carry evaluation scratch): a fragment claiming
// blocks from queue, or with a nil queue the serial scan of the whole
// table. A column scan's predicate addresses positions within Read, a
// row scan's — like its projection — the full source schema.
func (s *PScan) scanOp(queue *exec.Morsels) (exec.Operator, error) {
	schema := s.Variant.ST.Tab.Schema
	if s.Variant.ST.Layout == exec.ColumnMajor {
		pred, err := lowerPreds(s.Preds, func(c ColRef) (int, error) {
			if i := slices.Index(s.Read, schema.ColIndex(c.Col)); i >= 0 {
				return i, nil
			}
			return 0, fmt.Errorf("opt: predicate column %q not fetched", c.Col)
		})
		if err != nil {
			return nil, err
		}
		cs := exec.NewColumnScan(s.Variant.ST, s.Read, s.Emit, pred)
		cs.Morsels = queue
		return cs, nil
	}
	rowPred, err := lowerPreds(s.Preds, func(c ColRef) (int, error) {
		if i := schema.ColIndex(c.Col); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("opt: unknown predicate column %q", c.Col)
	})
	if err != nil {
		return nil, err
	}
	emit := make([]int, len(s.Emit))
	for i, e := range s.Emit {
		emit[i] = s.Read[e]
	}
	rs := exec.NewRowScan(s.Variant.ST, emit, rowPred)
	rs.Morsels = queue
	rs.Window = 4 // planner scans are big: pipeline with readahead
	if queue != nil {
		rs.Window = 2 // per-fragment readahead; dop fragments stream at once
	}
	return rs, nil
}

// BuildFragments implements fragSource: up to dop scan fragments sharing
// one fresh morsel dispenser. The caller owns wiring them under an
// exchange, which resets the dispenser on re-open.
func (s *PScan) BuildFragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	nb := s.Variant.ST.NumBlocks()
	if dop > nb {
		dop = nb
	}
	if dop <= 1 {
		op, err := s.scanOp(nil)
		if err != nil {
			return exec.Fragments{}, err
		}
		return exec.OneFragment(op), nil
	}
	queue := exec.NewMorsels(nb, 0)
	mk := func() (exec.Operator, error) { return s.scanOp(queue) }
	frags := make([]exec.Operator, dop)
	for i := range frags {
		f, err := mk()
		if err != nil {
			return exec.Fragments{}, err
		}
		frags[i] = f
	}
	return exec.NewFragments(frags, queue, mk), nil
}

// Children implements PhysNode.
func (s *PScan) Children() []PhysNode { return nil }

func (s *PScan) describe() (op, detail, notes string) {
	detail = fmt.Sprintf("%s (%s) rows≈%.0f%s", s.Alias, s.Variant.Name, s.card, predList(s.Preds))
	return "scan", detail, fmt.Sprintf(" cols=%d", len(s.Emit)) + dopNote("dop", s.DOP)
}

// PJoin is a binary join (hash or block nested-loop).
type PJoin struct {
	Algo     string   // "hash" or "nl"
	Left     PhysNode // build (hash) or outer (nl)
	Right    PhysNode // probe (hash) or inner (nl)
	LeftCol  int
	RightCol int
	Pred     PredIR // the equality predicate this join applies
	BuildDOP int    // hash only: fragment the build pipeline this many ways; <= 1 serial
	ProbeDOP int    // hash only: fragment the probe pipeline this many ways; <= 1 serial

	cols []ColRef
	card float64
	cost Cost
}

// Columns implements PhysNode.
func (j *PJoin) Columns() []ColRef { return j.cols }

// Card implements PhysNode.
func (j *PJoin) Card() float64 { return j.card }

// RowBytes implements PhysNode.
func (j *PJoin) RowBytes() float64 { return j.Left.RowBytes() + j.Right.RowBytes() }

// Cost implements PhysNode.
func (j *PJoin) Cost() Cost { return j.cost }

// MaxDOP implements PhysNode.
func (j *PJoin) MaxDOP() int {
	return max(j.BuildDOP, j.ProbeDOP, j.Left.MaxDOP(), j.Right.MaxDOP())
}

// Build implements PhysNode: the join's fragments (see BuildFragments)
// under a Parallel merge, or the one serial join itself.
func (j *PJoin) Build(ctx *exec.Ctx) (exec.Operator, error) {
	fr, err := j.BuildFragments(ctx, j.ProbeDOP)
	if err != nil {
		return nil, err
	}
	return fr.Stream(), nil
}

// BuildFragments implements fragSource for the probe side of a hash join:
// the probe pipeline fragments over its shared morsel dispenser and every
// fragment probes one shared build state, run once by the first fragment
// to open (exec.SharedBuild). Probe and join-output CPU thereby run inside
// the fragments at the swept DOP. The build side composes: it compiles
// BuildDOP ways, its fragments hash-partitioning rows by key so the
// per-partition tables build concurrently and the probe routes through the
// same partitioning. A nested-loop join does not fragment.
func (j *PJoin) BuildFragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	if j.Algo != "hash" {
		l, err := j.Left.Build(ctx)
		if err != nil {
			return exec.Fragments{}, err
		}
		r, err := j.Right.Build(ctx)
		if err != nil {
			return exec.Fragments{}, err
		}
		return exec.OneFragment(exec.NewNestedLoopJoin(l, r, j.LeftCol, j.RightCol)), nil
	}
	build, err := buildFragments(ctx, j.Left, j.BuildDOP)
	if err != nil {
		return exec.Fragments{}, err
	}
	probe, err := buildFragments(ctx, j.Right, dop)
	if err != nil {
		return exec.Fragments{}, err
	}
	sb := exec.NewSharedBuild(build, j.LeftCol, build.Len())
	return probe.Map(func(in exec.Operator) (exec.Operator, error) {
		return exec.NewProber(sb, in, j.RightCol), nil
	})
}

// Children implements PhysNode.
func (j *PJoin) Children() []PhysNode { return []PhysNode{j.Left, j.Right} }

func (j *PJoin) describe() (op, detail, notes string) {
	return j.Algo + " join", fmt.Sprintf("on L.%d = R.%d rows≈%.0f", j.LeftCol, j.RightCol, j.card),
		dopNote("build_dop", j.BuildDOP) + dopNote("probe_dop", j.ProbeDOP)
}

// PFilter applies residual predicates above a join.
type PFilter struct {
	In    PhysNode
	Preds []PredIR

	card float64
	cost Cost
}

// Columns implements PhysNode.
func (f *PFilter) Columns() []ColRef { return f.In.Columns() }

// Card implements PhysNode.
func (f *PFilter) Card() float64 { return f.card }

// RowBytes implements PhysNode.
func (f *PFilter) RowBytes() float64 { return f.In.RowBytes() }

// Cost implements PhysNode.
func (f *PFilter) Cost() Cost { return f.cost }

// MaxDOP implements PhysNode.
func (f *PFilter) MaxDOP() int { return f.In.MaxDOP() }

// Build implements PhysNode.
func (f *PFilter) Build(ctx *exec.Ctx) (exec.Operator, error) {
	in, err := f.In.Build(ctx)
	if err != nil {
		return nil, err
	}
	return f.wrap(in)
}

// wrap puts this filter over one input operator with a fresh predicate
// instance (predicates carry evaluation scratch, so fragments must not
// share one).
func (f *PFilter) wrap(in exec.Operator) (exec.Operator, error) {
	cols := f.In.Columns()
	pred, err := lowerPreds(f.Preds, func(c ColRef) (int, error) {
		if i := colIndex(cols, c); i >= 0 {
			return i, nil
		}
		return 0, fmt.Errorf("opt: residual column %v not in scope", c)
	})
	if err != nil {
		return nil, err
	}
	return &exec.Filter{In: in, Pred: pred}, nil
}

// BuildFragments implements fragSource: every fragment of the child
// pipeline gets its own Filter with a fresh predicate instance, so the
// residual filter's per-row CPU runs inside the fragments at the swept
// DOP instead of as a serial stage above the exchange.
func (f *PFilter) BuildFragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	fr, err := buildFragments(ctx, f.In, dop)
	if err != nil {
		return fr, err
	}
	return fr.Map(f.wrap)
}

// Children implements PhysNode.
func (f *PFilter) Children() []PhysNode { return []PhysNode{f.In} }

func (f *PFilter) describe() (op, detail, notes string) {
	return "filter", fmt.Sprintf("rows≈%.0f%s", f.card, predList(f.Preds)), ""
}

// PProject evaluates scalar expressions.
type PProject struct {
	In    PhysNode
	Exprs []*ExprIR
	Names []string

	cols []ColRef
	cost Cost
}

// Columns implements PhysNode.
func (p *PProject) Columns() []ColRef { return p.cols }

// Card implements PhysNode.
func (p *PProject) Card() float64 { return p.In.Card() }

// RowBytes implements PhysNode.
func (p *PProject) RowBytes() float64 { return float64(8 * len(p.Exprs)) }

// Cost implements PhysNode.
func (p *PProject) Cost() Cost { return p.cost }

// MaxDOP implements PhysNode.
func (p *PProject) MaxDOP() int { return p.In.MaxDOP() }

// Build implements PhysNode.
func (p *PProject) Build(ctx *exec.Ctx) (exec.Operator, error) {
	in, err := p.In.Build(ctx)
	if err != nil {
		return nil, err
	}
	exprs, err := p.scalars()
	if err != nil {
		return nil, err
	}
	return p.wrap(in, exprs)
}

// scalars lowers the projection's expressions to executor trees. A tree
// is immutable, so one set serves every fragment: each fragment's
// Project compiles its own kernels from it.
func (p *PProject) scalars() ([]exec.Scalar, error) {
	cols := p.In.Columns()
	exprs := make([]exec.Scalar, len(p.Exprs))
	for i, e := range p.Exprs {
		ex, err := buildScalar(e, cols)
		if err != nil {
			return nil, err
		}
		exprs[i] = ex
	}
	return exprs, nil
}

// wrap puts this projection over one input operator.
func (p *PProject) wrap(in exec.Operator, exprs []exec.Scalar) (exec.Operator, error) {
	proj, err := exec.NewProject(in, exprs, p.Names)
	if err != nil {
		return nil, err
	}
	return proj, nil
}

// BuildFragments implements fragSource: the child's fragments each get
// their own copy of the projection, so the whole scan→project pipeline
// runs inside every worker.
func (p *PProject) BuildFragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	fr, err := buildFragments(ctx, p.In, dop)
	if err != nil {
		return fr, err
	}
	exprs, err := p.scalars()
	if err != nil {
		return fr, err
	}
	return fr.Map(func(in exec.Operator) (exec.Operator, error) { return p.wrap(in, exprs) })
}

// buildScalar lowers one ExprIR to an executor tree over cols.
func buildScalar(e *ExprIR, cols []ColRef) (exec.Scalar, error) {
	switch {
	case e.Col != nil:
		i := colIndex(cols, *e.Col)
		if i < 0 {
			return nil, fmt.Errorf("opt: column %v not in scope", *e.Col)
		}
		return &exec.ColRef{Col: i}, nil
	case e.Const != nil:
		return &exec.Const{Val: *e.Const}, nil
	default:
		l, err := buildScalar(e.L, cols)
		if err != nil {
			return nil, err
		}
		r, err := buildScalar(e.R, cols)
		if err != nil {
			return nil, err
		}
		return &exec.Arith{Op: e.Op, L: l, R: r}, nil
	}
}

// lowerPreds lowers a conjunction of PredIRs to one executor predicate
// (nil when there is none), with pos giving each column's position in the
// batches the predicate will see. Every call builds a fresh instance.
func lowerPreds(preds []PredIR, pos func(ColRef) (int, error)) (exec.Pred, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	terms := make([]exec.Pred, len(preds))
	for k, p := range preds {
		i, err := pos(p.Left)
		if err != nil {
			return nil, err
		}
		if !p.IsJoin {
			terms[k] = &exec.ColConst{Col: i, Op: p.Op, Val: p.Val}
			continue
		}
		j, err := pos(p.Right)
		if err != nil {
			return nil, err
		}
		terms[k] = &exec.ColCol{Left: i, Right: j, Op: p.Op}
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return &exec.And{Preds: terms}, nil
}

// Children implements PhysNode.
func (p *PProject) Children() []PhysNode { return []PhysNode{p.In} }

func (p *PProject) describe() (op, detail, notes string) {
	return "project", fmt.Sprintf("%d exprs", len(p.Exprs)), ""
}

// PAgg groups and aggregates.
type PAgg struct {
	In      PhysNode
	Group   []int // child positions
	Aggs    []exec.AggSpec
	AggRefs []ColRef // output refs for aggregate columns
	DOP     int      // fragment the input pipeline this many ways; <= 1 serial

	cols []ColRef
	card float64
	cost Cost
}

// Columns implements PhysNode.
func (a *PAgg) Columns() []ColRef { return a.cols }

// Card implements PhysNode.
func (a *PAgg) Card() float64 { return a.card }

// RowBytes implements PhysNode.
func (a *PAgg) RowBytes() float64 { return float64(8 * (len(a.Group) + len(a.Aggs))) }

// Cost implements PhysNode.
func (a *PAgg) Cost() Cost { return a.cost }

// MaxDOP implements PhysNode.
func (a *PAgg) MaxDOP() int { return max(a.DOP, a.In.MaxDOP()) }

// Build implements PhysNode: the input pipeline compiles DOP ways under
// the aggregation's barrier exchange (per-fragment partial tables,
// partition-wise merge); DOP <= 1, or an input that cannot fragment, is
// the one-fragment set.
func (a *PAgg) Build(ctx *exec.Ctx) (exec.Operator, error) {
	in, err := buildFragments(ctx, a.In, a.DOP)
	if err != nil {
		return nil, err
	}
	return exec.NewHashAgg(in, a.Group, a.Aggs), nil
}

// Children implements PhysNode.
func (a *PAgg) Children() []PhysNode { return []PhysNode{a.In} }

func (a *PAgg) describe() (op, detail, notes string) {
	return "agg", fmt.Sprintf("groups≈%.0f aggs=%d", a.card, len(a.Aggs)), dopNote("dop", a.DOP)
}

// PSort orders rows.
type PSort struct {
	In   PhysNode
	Keys []exec.SortKey

	cost Cost
}

// Columns implements PhysNode.
func (s *PSort) Columns() []ColRef { return s.In.Columns() }

// Card implements PhysNode.
func (s *PSort) Card() float64 { return s.In.Card() }

// RowBytes implements PhysNode.
func (s *PSort) RowBytes() float64 { return s.In.RowBytes() }

// Cost implements PhysNode.
func (s *PSort) Cost() Cost { return s.cost }

// MaxDOP implements PhysNode.
func (s *PSort) MaxDOP() int { return s.In.MaxDOP() }

// Build implements PhysNode.
func (s *PSort) Build(ctx *exec.Ctx) (exec.Operator, error) {
	in, err := s.In.Build(ctx)
	if err != nil {
		return nil, err
	}
	return &exec.Sort{In: in, Keys: s.Keys}, nil
}

// Children implements PhysNode.
func (s *PSort) Children() []PhysNode { return []PhysNode{s.In} }

func (s *PSort) describe() (op, detail, notes string) {
	return "sort", fmt.Sprintf("keys=%d", len(s.Keys)), ""
}

// PLimit truncates output.
type PLimit struct {
	In PhysNode
	N  int64
}

// Columns implements PhysNode.
func (l *PLimit) Columns() []ColRef { return l.In.Columns() }

// Card implements PhysNode.
func (l *PLimit) Card() float64 { return math.Min(float64(l.N), l.In.Card()) }

// RowBytes implements PhysNode.
func (l *PLimit) RowBytes() float64 { return l.In.RowBytes() }

// Cost implements PhysNode.
func (l *PLimit) Cost() Cost { return l.In.Cost() }

// MaxDOP implements PhysNode.
func (l *PLimit) MaxDOP() int { return l.In.MaxDOP() }

// Build implements PhysNode.
func (l *PLimit) Build(ctx *exec.Ctx) (exec.Operator, error) {
	in, err := l.In.Build(ctx)
	if err != nil {
		return nil, err
	}
	return &exec.Limit{In: in, N: l.N}, nil
}

// Children implements PhysNode.
func (l *PLimit) Children() []PhysNode { return []PhysNode{l.In} }

func (l *PLimit) describe() (op, detail, notes string) {
	return "limit", fmt.Sprintf("%d", l.N), ""
}

// predList renders pushed or residual predicates for describe.
func predList(preds []PredIR) string {
	var b strings.Builder
	for _, p := range preds {
		fmt.Fprintf(&b, " [%v]", p)
	}
	return b.String()
}

// dopNote is the " name=N" annotation of a degree of parallelism worth
// showing, and nothing for a serial one.
func dopNote(name string, dop int) string {
	if dop <= 1 {
		return ""
	}
	return fmt.Sprintf(" %s=%d", name, dop)
}

// Plan is a costed, buildable physical plan.
type Plan struct {
	Root      PhysNode
	Objective Objective
	// PState is the CPU operating point the plan was priced at (index
	// into Env.PStates; 0 = nominal). PStateName is its label.
	PState     int
	PStateName string
}

// Cost reports the plan's dual cost.
func (p *Plan) Cost() Cost { return p.Root.Cost() }

// Build constructs the executable operator tree.
func (p *Plan) Build(ctx *exec.Ctx) (exec.Operator, error) { return p.Root.Build(ctx) }

// MaxDOP reports the widest degree of parallelism any operator of the
// plan will use — the cores the plan can actually occupy at once. The
// admission controller returns the unused remainder of a query's grant to
// the free pool once the plan is chosen.
func (p *Plan) MaxDOP() int { return p.Root.MaxDOP() }

// walk visits n's subtree in pre-order, depth counted from n: the one
// traversal both EXPLAIN renderings are made from.
func walk(n PhysNode, depth int, visit func(n PhysNode, depth int)) {
	visit(n, depth)
	for _, c := range n.Children() {
		walk(c, depth+1, visit)
	}
}

// Explain renders the plan as an indented tree with per-node costs.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective=%v total=%v", p.Objective, p.Root.Cost())
	if p.PState > 0 {
		fmt.Fprintf(&b, " pstate=%s", p.PStateName)
	}
	b.WriteString("\n")
	walk(p.Root, 0, func(n PhysNode, depth int) {
		op, detail, notes := n.describe()
		fmt.Fprintf(&b, "%s%s %s %v%s\n", strings.Repeat("  ", depth), op, detail, n.Cost(), notes)
	})
	return b.String()
}
