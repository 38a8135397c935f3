package opt

import (
	"fmt"
	"math"
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
	explain(b *strings.Builder, indent string)
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
// table.
func (s *PScan) scanOp(queue *exec.Morsels) (exec.Operator, error) {
	if s.Variant.ST.Layout == exec.ColumnMajor {
		pred, err := s.execPred()
		if err != nil {
			return nil, err
		}
		cs := exec.NewColumnScan(s.Variant.ST, s.Read, s.Emit, pred)
		cs.Morsels = queue
		return cs, nil
	}
	rowPred, err := s.execPredFull()
	if err != nil {
		return nil, err
	}
	// Row scans project by full source schema positions.
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

// execPred translates the pushed predicates to positions within Read.
func (s *PScan) execPred() (exec.Pred, error) {
	return s.buildPred(func(col string) (int, error) {
		srcIdx := s.Variant.ST.Tab.Schema.ColIndex(col)
		for i, r := range s.Read {
			if r == srcIdx {
				return i, nil
			}
		}
		return 0, fmt.Errorf("opt: predicate column %q not fetched", col)
	})
}

// execPredFull translates predicates to full source schema positions.
func (s *PScan) execPredFull() (exec.Pred, error) {
	return s.buildPred(func(col string) (int, error) {
		i := s.Variant.ST.Tab.Schema.ColIndex(col)
		if i < 0 {
			return 0, fmt.Errorf("opt: unknown predicate column %q", col)
		}
		return i, nil
	})
}

func (s *PScan) buildPred(pos func(string) (int, error)) (exec.Pred, error) {
	if len(s.Preds) == 0 {
		return nil, nil
	}
	var terms []exec.Pred
	for _, p := range s.Preds {
		i, err := pos(p.Left.Col)
		if err != nil {
			return nil, err
		}
		if p.IsJoin {
			j, err := pos(p.Right.Col)
			if err != nil {
				return nil, err
			}
			terms = append(terms, &exec.ColCol{Left: i, Right: j, Op: p.Op})
			continue
		}
		terms = append(terms, &exec.ColConst{Col: i, Op: p.Op, Val: p.Val})
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return &exec.And{Preds: terms}, nil
}

func (s *PScan) explain(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sscan %s (%s) cols=%d rows≈%.0f %v", indent, s.Alias, s.Variant.Name, len(s.Emit), s.card, s.cost)
	if s.DOP > 1 {
		fmt.Fprintf(b, " dop=%d", s.DOP)
	}
	for _, p := range s.Preds {
		fmt.Fprintf(b, " [%v]", p)
	}
	b.WriteByte('\n')
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

func (j *PJoin) explain(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%s%s join on L.%d = R.%d rows≈%.0f %v", indent, j.Algo, j.LeftCol, j.RightCol, j.card, j.cost)
	if j.BuildDOP > 1 {
		fmt.Fprintf(b, " build_dop=%d", j.BuildDOP)
	}
	if j.ProbeDOP > 1 {
		fmt.Fprintf(b, " probe_dop=%d", j.ProbeDOP)
	}
	b.WriteByte('\n')
	j.Left.explain(b, indent+"  ")
	j.Right.explain(b, indent+"  ")
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
	var terms []exec.Pred
	for _, p := range f.Preds {
		li := colIndex(cols, p.Left)
		if li < 0 {
			return nil, fmt.Errorf("opt: residual column %v not in scope", p.Left)
		}
		if p.IsJoin {
			ri := colIndex(cols, p.Right)
			if ri < 0 {
				return nil, fmt.Errorf("opt: residual column %v not in scope", p.Right)
			}
			terms = append(terms, &exec.ColCol{Left: li, Right: ri, Op: p.Op})
		} else {
			terms = append(terms, &exec.ColConst{Col: li, Op: p.Op, Val: p.Val})
		}
	}
	var pred exec.Pred = &exec.And{Preds: terms}
	if len(terms) == 1 {
		pred = terms[0]
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

func (f *PFilter) explain(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sfilter rows≈%.0f %v", indent, f.card, f.cost)
	for _, p := range f.Preds {
		fmt.Fprintf(b, " [%v]", p)
	}
	b.WriteByte('\n')
	f.In.explain(b, indent+"  ")
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
	return p.wrap(in)
}

// wrap puts this projection over one input operator with fresh scalar
// instances (expression trees are stateless today, but fragments must not
// share operators regardless).
func (p *PProject) wrap(in exec.Operator) (exec.Operator, error) {
	cols := p.In.Columns()
	exprs := make([]exec.Scalar, len(p.Exprs))
	for i, e := range p.Exprs {
		ex, err := buildScalar(e, cols)
		if err != nil {
			return nil, err
		}
		exprs[i] = ex
	}
	return exec.NewProject(in, exprs, p.Names), nil
}

// BuildFragments implements fragSource: the child's fragments each get
// their own copy of the projection, so the whole scan→project pipeline
// runs inside every worker.
func (p *PProject) BuildFragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	fr, err := buildFragments(ctx, p.In, dop)
	if err != nil {
		return fr, err
	}
	return fr.Map(p.wrap)
}

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

func (p *PProject) explain(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sproject %d exprs %v\n", indent, len(p.Exprs), p.cost)
	p.In.explain(b, indent+"  ")
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

func (a *PAgg) explain(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sagg groups≈%.0f aggs=%d %v", indent, a.card, len(a.Aggs), a.cost)
	if a.DOP > 1 {
		fmt.Fprintf(b, " dop=%d", a.DOP)
	}
	b.WriteByte('\n')
	a.In.explain(b, indent+"  ")
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

func (s *PSort) explain(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%ssort keys=%d %v\n", indent, len(s.Keys), s.cost)
	s.In.explain(b, indent+"  ")
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

func (l *PLimit) explain(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%slimit %d\n", indent, l.N)
	l.In.explain(b, indent+"  ")
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

// Explain renders the plan as an indented tree with per-node costs.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objective=%v total=%v", p.Objective, p.Root.Cost())
	if p.PState > 0 {
		fmt.Fprintf(&b, " pstate=%s", p.PStateName)
	}
	b.WriteString("\n")
	p.Root.explain(&b, "")
	return b.String()
}
