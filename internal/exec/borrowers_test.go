package exec

import (
	"testing"
	"unsafe"

	"energydb/internal/table"
)

// borrower is an operator that materialises or refills memory borrowed
// from the recycler, as the recycling tests see it: a plan over a table of
// ordersLike rows, and what the plan holds borrowed while it is open.
type borrower struct {
	name string
	plan func(tab *table.Table) Operator
	held func(op Operator, h *held)
}

// held lists arrays an operator holds borrowed, by element type.
type held struct {
	ints   [][]int64
	floats [][]float64
	strs   [][]string
	sels   [][]int32
	bools  [][]bool
	slots  [][]keySlot
}

func (h *held) vec(v *table.Vector) {
	h.ints = append(h.ints, v.I)
	h.floats = append(h.floats, v.F)
	h.strs = append(h.strs, v.S)
}

func (h *held) batch(b *table.Batch) {
	for _, v := range b.Vecs {
		h.vec(v)
	}
}

// pointers lists where each array with room for a cell starts.
func (h *held) pointers() []unsafe.Pointer {
	var out []unsafe.Pointer
	add := func(p unsafe.Pointer, c int) {
		if c > 0 {
			out = append(out, p)
		}
	}
	for _, a := range h.ints {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	for _, a := range h.floats {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	for _, a := range h.strs {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	for _, a := range h.sels {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	for _, a := range h.bools {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	for _, a := range h.slots {
		add(unsafe.Pointer(unsafe.SliceData(a)), cap(a))
	}
	return out
}

// halves splits tab into two tables, for a fragment set of two.
func halves(tab *table.Table) [2]*table.Table {
	var out [2]*table.Table
	for i, r := range [2][2]int{{0, tab.Rows() / 2}, {tab.Rows() / 2, tab.Rows()}} {
		out[i] = table.NewTable(tab.Schema)
		out[i].AppendBatch(tab.Slice(r[0], r[1]))
	}
	return out
}

// borrowers are the operators that borrow what they materialise: the
// hash-join build (ordersLike rows by o_orderkey, probed by every fourth
// key), a self-join on o_custkey, whose probe rows match about four build
// rows each, so that the Prober's match vectors outgrow a probe batch, a
// two-fragment aggregation grouping by the unique o_orderkey — so
// per-worker tables are merged, and more than one output batch is refilled
// — a two-key sort, a projection computing one float and one int
// register, and a filter over a projection keeping about half of each
// batch.
func borrowers() []borrower {
	dim := joinFixture(9000)
	return []borrower{
		{"hash join build", func(tab *table.Table) Operator {
			return NewHashJoin(&Values{Tab: tab}, &Values{Tab: dim, BatchRows: 1024}, 0, 0)
		}, func(op Operator, h *held) {
			if bs := op.(*Prober).SB.bs; bs != nil {
				h.batch(bs.buildB)
				h.sels = append(h.sels, bs.next)
				h.slots = append(h.slots, bs.tab.slots)
			}
		}},
		{"many-match probe", func(tab *table.Table) Operator {
			return NewHashJoin(&Values{Tab: tab}, &Values{Tab: tab, BatchRows: 1024}, 1, 1)
		}, func(op Operator, h *held) {
			p := op.(*Prober)
			h.sels = append(h.sels, p.hash, p.bsel, p.psel)
			if p.out != nil {
				h.batch(p.out)
			}
		}},
		{"aggregation", func(tab *table.Table) Operator {
			in := halves(tab)
			return NewHashAgg(NewFragments([]Operator{&Values{Tab: in[0]}, &Values{Tab: in[1]}}, nil), []int{0}, []AggSpec{
				{Func: Count}, {Func: Sum, Col: 3}, {Func: Min, Col: 5}, {Func: Max, Col: 1}, {Func: Avg, Col: 3}})
		}, func(op Operator, h *held) {
			a := op.(*HashAgg)
			if t := a.tab; t != nil {
				for ci := range t.keys {
					h.vec(&t.keys[ci])
				}
				h.ints = append(h.ints, t.counts)
				for _, c := range t.aggs {
					h.ints = append(h.ints, c.sumI, c.extI)
					h.floats = append(h.floats, c.sumF, c.extF)
					h.strs = append(h.strs, c.extS)
					h.bools = append(h.bools, c.seen)
				}
				h.sels = append(h.sels, t.gids, t.parts)
				h.slots = append(h.slots, t.index.slots)
			}
			h.sels = append(h.sels, a.order)
			if a.out != nil {
				h.batch(a.out)
			}
		}},
		{"sort", func(tab *table.Table) Operator {
			return &Sort{In: &Values{Tab: tab}, Keys: []SortKey{{Col: 5}, {Col: 3, Desc: true}}}
		}, func(op Operator, h *held) {
			s := op.(*Sort)
			if s.store != nil {
				h.batch(s.store)
			}
			h.sels = append(h.sels, s.perm)
			if s.out != nil {
				h.batch(s.out)
			}
		}},
		{"projection", func(tab *table.Table) Operator {
			p, err := NewProject(&Values{Tab: tab, BatchRows: 1024}, []Scalar{
				&Arith{Op: Mul, L: &ColRef{Col: 3}, R: &Const{Val: table.FloatVal(2)}},
				&Arith{Op: Add, L: &ColRef{Col: 0}, R: &ColRef{Col: 1}},
			}, []string{"twice", "sum"})
			if err != nil {
				panic(err)
			}
			return p
		}, func(op Operator, h *held) {
			for _, e := range op.(*Project).exprs {
				h.ints = append(h.ints, e.k.regsI...)
				h.floats = append(h.floats, e.k.regsF...)
				h.sels = append(h.sels, e.k.iota)
			}
		}},
		{"filter", func(tab *table.Table) Operator {
			// Over a projection, so that the batches it passes on lie in
			// borrowed registers, not in tab.
			p, err := NewProject(&Values{Tab: tab, BatchRows: 1024}, []Scalar{
				&Arith{Op: Mul, L: &ColRef{Col: 3}, R: &Const{Val: table.FloatVal(2)}},
			}, []string{"twice"})
			if err != nil {
				panic(err)
			}
			return &Filter{In: p, Pred: &ColConst{Col: 0, Op: Lt, Val: table.FloatVal(100000)}}
		}, func(op Operator, h *held) {
			f := op.(*Filter)
			h.sels = append(h.sels, f.sel)
			for _, e := range f.In.(*Project).exprs {
				h.floats = append(h.floats, e.k.regsF...)
				h.sels = append(h.sels, e.k.iota)
			}
		}},
	}
}

// TestMemorySharedWhileStatementsRun: the statements of an engine share
// one recycler from the first statement's first borrow to the last one's
// Release, and an idle engine holds none; a statement that borrowed
// nothing, or is released twice, changes nothing.
func TestMemorySharedWhileStatementsRun(t *testing.T) {
	var mem Memory
	stmt := func() *Ctx {
		c := NewCtx(nil, nil)
		c.Mem = &mem
		return c
	}
	a, b, idle := stmt(), stmt(), stmt()
	frag := *a // a fragment's Ctx is a copy of its statement's
	ma := frag.borrow()
	if ma == nil || a.borrow() != ma || b.borrow() != ma {
		t.Fatal("two statements of one engine, and a fragment of one, borrow from different recyclers")
	}
	idle.Release()
	a.Release()
	a.Release()
	if mem.mem != ma || mem.users != 1 {
		t.Fatalf("with a statement still running the engine holds %p for %d statements, want %p for 1", mem.mem, mem.users, ma)
	}
	b.Release()
	if mem.mem != nil || mem.users != 0 {
		t.Fatalf("an idle engine holds %p for %d statements, want none", mem.mem, mem.users)
	}
}
