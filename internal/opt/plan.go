package opt

import (
	"fmt"
	"slices"
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

// PhysNode is a node of a physical plan. What the optimizer computed when
// it built the node — output columns, cardinality, row width, cumulative
// dual cost and the node's own degree of parallelism — sits in the props
// every node type embeds, so each type adds only its inputs, its rendering
// and how it compiles.
type PhysNode interface {
	Columns() []ColRef
	Card() float64
	RowBytes() float64
	Cost() Cost
	// Children lists the node's inputs in the order EXPLAIN shows them;
	// every walk over a plan goes through it. The slice is the node's own
	// (a walk allocates nothing): read it, never write it.
	Children() []PhysNode
	// describe is the node's one rendering for EXPLAIN: the operator name
	// and detail are ExplainRows' first two columns, notes the
	// annotations only Explain's text carries (cols=, dop=, probe_dop=),
	// each with a leading space.
	describe() (op, detail, notes string)
	// fragments is the node's one compile path. dop > 1 asks for that many
	// fragment pipelines sharing one morsel dispenser, so an exchange
	// consumer — the Parallel streaming merge or the aggregation — runs
	// the whole pipeline above the scan in every worker: scans, filters,
	// projections and hash-join probe sides divide, and fewer fragments
	// come back when the input cannot divide that far. dop <= 1 asks for
	// one fragment that runs at the node's own DOP inside it. A node that
	// does not divide returns that one fragment either way.
	fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error)
	base() *props
}

// props is what the optimizer computes for a node when it builds it. dop
// is the node's own degree of parallelism, <= 1 serial: the fragments of
// a scan, of a hash join's probe pipeline, or of an aggregation's input.
type props struct {
	cols     []ColRef
	card     float64
	rowBytes float64
	cost     Cost
	dop      int
}

// Columns is the node's output.
func (p *props) Columns() []ColRef { return p.cols }

// Card is the node's estimated cardinality.
func (p *props) Card() float64 { return p.card }

// RowBytes is the node's estimated output row width.
func (p *props) RowBytes() float64 { return p.rowBytes }

// Cost is the node's cumulative dual cost, its inputs included.
func (p *props) Cost() Cost { return p.cost }

// base is the props of the node that embeds them.
func (p *props) base() *props { return p }

// over is the props of a node that passes in's rows through: its columns,
// cardinality, width and cost, until the node sets its own.
func over(in PhysNode) props {
	return props{cols: in.Columns(), card: in.Card(), rowBytes: in.RowBytes(), cost: in.Cost()}
}

// maxDOP is the widest degree of parallelism n's subtree uses — the cores
// it can occupy at once. Admission returns the unused remainder of a
// query's grant once the plan is chosen, so an under-report here would
// oversubscribe the free pool.
func maxDOP(n PhysNode) int {
	d := max(1, n.base().dop)
	for _, c := range n.Children() {
		d = max(d, maxDOP(c))
	}
	return d
}

// operator compiles n to one operator: its one fragment at its own DOP.
func operator(ctx *exec.Ctx, n PhysNode) (exec.Operator, error) {
	fr, err := n.fragments(ctx, 1)
	return fr.Stream(), err
}

// streamed is the fragment set fr as one fragment: the Parallel merge over
// its fragments, or its only fragment.
func streamed(fr exec.Fragments, err error) (exec.Fragments, error) {
	return exec.OneFragment(fr.Stream()), err
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

// PScan scans one placement variant with pushed-down predicates, possibly
// as a parallel morsel-driven scan.
type PScan struct {
	props
	Alias   string
	Variant Variant
	Read    []int // source schema column indexes fetched
	Emit    []int // positions within Read forming the output
	Preds   []PredIR
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
	return rs, nil
}

// fragments implements PhysNode: up to dop scan fragments sharing one
// fresh morsel dispenser, which the exchange running them resets on
// re-open, or the serial scan when dop — or the table — is too small to
// split.
func (s *PScan) fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	if dop <= 1 && s.dop > 1 {
		return streamed(s.fragments(ctx, s.dop))
	}
	nb := s.Variant.ST.NumBlocks()
	if dop = min(dop, nb); dop <= 1 {
		op, err := s.scanOp(nil)
		return exec.OneFragment(op), err
	}
	queue := exec.NewMorsels(nb, 0)
	frags := make([]exec.Operator, dop)
	for i := range frags {
		f, err := s.scanOp(queue)
		if err != nil {
			return exec.Fragments{}, err
		}
		frags[i] = f
	}
	return exec.NewFragments(frags, queue), nil
}

// Children implements PhysNode.
func (s *PScan) Children() []PhysNode { return nil }

func (s *PScan) describe() (op, detail, notes string) {
	detail = fmt.Sprintf("%s (%s) rows≈%.0f%s", s.Alias, s.Variant.Name, s.card, predList(s.Preds))
	return "scan", detail, fmt.Sprintf(" cols=%d", len(s.Emit)) + dopNote("dop", s.dop)
}

// PJoin is a binary join (hash or block nested-loop). A hash join's own
// DOP fragments its probe pipeline.
type PJoin struct {
	props
	Algo     string      // "hash" or "nl"
	in       [2]PhysNode // build (hash) or outer (nl), then probe (hash) or inner (nl)
	LeftCol  int
	RightCol int
	Pred     PredIR // the equality predicate this join applies
}

// fragments implements PhysNode for the probe side of a hash join: the
// probe pipeline fragments over its shared morsel dispenser and every
// fragment probes one shared build state, run once by the first fragment
// to open (exec.SharedBuild). Probe and join-output CPU thereby run inside
// the fragments. The build side is one operator into one table; a
// build-side scan priced parallel streams its own fragments through a
// Parallel merge into it. A nested-loop join does not divide.
func (j *PJoin) fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	if dop <= 1 && j.dop > 1 {
		return streamed(j.fragments(ctx, j.dop))
	}
	l, err := operator(ctx, j.in[0])
	if err != nil {
		return exec.Fragments{}, err
	}
	if j.Algo != "hash" {
		r, err := operator(ctx, j.in[1])
		if err != nil {
			return exec.Fragments{}, err
		}
		return exec.OneFragment(exec.NewNestedLoopJoin(l, r, j.LeftCol, j.RightCol)), nil
	}
	probe, err := j.in[1].fragments(ctx, dop)
	if err != nil {
		return exec.Fragments{}, err
	}
	sb := exec.NewSharedBuild(l, j.LeftCol)
	return probe.Map(func(in exec.Operator) (exec.Operator, error) {
		return exec.NewProber(sb, in, j.RightCol), nil
	})
}

// Children implements PhysNode.
func (j *PJoin) Children() []PhysNode { return j.in[:] }

func (j *PJoin) describe() (op, detail, notes string) {
	return j.Algo + " join", fmt.Sprintf("on L.%d = R.%d rows≈%.0f", j.LeftCol, j.RightCol, j.card),
		dopNote("probe_dop", j.dop)
}

// PFilter applies residual predicates above a join.
type PFilter struct {
	props
	in    [1]PhysNode
	Preds []PredIR
}

// fragments implements PhysNode: every fragment of the input gets its own
// Filter with a fresh predicate instance (predicates carry evaluation
// scratch, so fragments must not share one), so the residual filter's
// per-row CPU runs inside the fragments instead of as a serial stage above
// the exchange.
func (f *PFilter) fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	fr, err := f.in[0].fragments(ctx, dop)
	if err != nil {
		return fr, err
	}
	cols := f.in[0].Columns()
	return fr.Map(func(in exec.Operator) (exec.Operator, error) {
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
	})
}

// Children implements PhysNode.
func (f *PFilter) Children() []PhysNode { return f.in[:] }

func (f *PFilter) describe() (op, detail, notes string) {
	return "filter", fmt.Sprintf("rows≈%.0f%s", f.card, predList(f.Preds)), ""
}

// PProject evaluates scalar expressions.
type PProject struct {
	props
	in    [1]PhysNode
	Exprs []*ExprIR
	Names []string
}

// fragments implements PhysNode: every fragment of the input gets its own
// projection, so the whole scan→project pipeline runs inside every worker.
// A lowered scalar tree is immutable, so one set serves every fragment:
// each fragment's Project compiles its own kernels from it.
func (p *PProject) fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	fr, err := p.in[0].fragments(ctx, dop)
	if err != nil {
		return fr, err
	}
	cols := p.in[0].Columns()
	exprs := make([]exec.Scalar, len(p.Exprs))
	for i, e := range p.Exprs {
		if exprs[i], err = buildScalar(e, cols); err != nil {
			return fr, err
		}
	}
	return fr.Map(func(in exec.Operator) (exec.Operator, error) {
		proj, err := exec.NewProject(in, exprs, p.Names)
		if err != nil {
			return nil, err
		}
		return proj, nil
	})
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
func (p *PProject) Children() []PhysNode { return p.in[:] }

func (p *PProject) describe() (op, detail, notes string) {
	return "project", fmt.Sprintf("%d exprs", len(p.Exprs)), ""
}

// PAgg groups and aggregates. Its own DOP fragments its input pipeline
// under the aggregation's barrier exchange.
type PAgg struct {
	props
	in    [1]PhysNode
	Group []int // child positions
	Aggs  []exec.AggSpec
}

// fragments implements PhysNode: the input pipeline compiles at the
// aggregation's DOP (per-fragment partial tables, partition-wise merge);
// a DOP <= 1, or an input that cannot divide, is the one-fragment set.
func (a *PAgg) fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	in, err := a.in[0].fragments(ctx, a.dop)
	if err != nil {
		return in, err
	}
	return exec.OneFragment(exec.NewHashAgg(in, a.Group, a.Aggs)), nil
}

// Children implements PhysNode.
func (a *PAgg) Children() []PhysNode { return a.in[:] }

func (a *PAgg) describe() (op, detail, notes string) {
	return "agg", fmt.Sprintf("groups≈%.0f aggs=%d", a.card, len(a.Aggs)), dopNote("dop", a.dop)
}

// PSort orders rows.
type PSort struct {
	props
	in   [1]PhysNode
	Keys []exec.SortKey
}

// fragments implements PhysNode.
func (s *PSort) fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	in, err := operator(ctx, s.in[0])
	if err != nil {
		return exec.Fragments{}, err
	}
	return exec.OneFragment(&exec.Sort{In: in, Keys: s.Keys}), nil
}

// Children implements PhysNode.
func (s *PSort) Children() []PhysNode { return s.in[:] }

func (s *PSort) describe() (op, detail, notes string) {
	return "sort", fmt.Sprintf("keys=%d", len(s.Keys)), ""
}

// PLimit truncates output.
type PLimit struct {
	props
	in [1]PhysNode
	N  int64
}

// fragments implements PhysNode.
func (l *PLimit) fragments(ctx *exec.Ctx, dop int) (exec.Fragments, error) {
	in, err := operator(ctx, l.in[0])
	if err != nil {
		return exec.Fragments{}, err
	}
	return exec.OneFragment(&exec.Limit{In: in, N: l.N}), nil
}

// Children implements PhysNode.
func (l *PLimit) Children() []PhysNode { return l.in[:] }

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

// Build compiles the plan to its executable operator tree: the root's
// one-fragment set, streamed.
func (p *Plan) Build(ctx *exec.Ctx) (exec.Operator, error) { return operator(ctx, p.Root) }

// MaxDOP reports the widest degree of parallelism any operator of the
// plan will use — the cores the plan can actually occupy at once. The
// admission controller returns the unused remainder of a query's grant to
// the free pool once the plan is chosen.
func (p *Plan) MaxDOP() int { return maxDOP(p.Root) }

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
