package exec

import (
	"fmt"

	"energydb/internal/fault"
	"energydb/internal/table"
)

// This file is the scalar expression evaluator — the only one. A
// projection's expressions arrive as plain trees (Scalar) and NewProject
// compiles each into a FusedExpr: a bare column is a pass-through of the
// child's vector, a bare constant is a vector filled once and resliced
// per batch, and an arithmetic tree is a single typed kernel — a flat
// postorder register program that runs one pass per instruction over
// kernel-owned register banks and touches only selected rows. ArithType
// types each node (Div and int/float mixes go float64), integer ops wrap,
// division by zero yields zero, and every element sees the operations in
// tree order. A node ArithType refuses is a compile error.

// fuseArgKind says where an instruction operand comes from.
type fuseArgKind uint8

const (
	fuseCol   fuseArgKind = iota // an input batch column
	fuseConst                    // an inline constant
	fuseReg                      // an earlier instruction's register
)

// fuseArg is one operand of a fused instruction.
type fuseArg struct {
	kind  fuseArgKind
	idx   int     // column or register index
	float bool    // operand's own physical class
	ci    int64   // constant payload (int class)
	cf    float64 // constant payload (float class)
}

// fuseInstr is one compiled Arith node: dst = l op r.
type fuseInstr struct {
	op    ArithOp
	float bool // result class: float64 arithmetic (else wrapping int64)
	dst   int  // register index in the result class's bank
	l, r  fuseArg
}

// FusedExpr is one compiled scalar expression.
type FusedExpr struct {
	col int     // the input column a bare column reference passes through
	k   *kernel // nil for a bare column
}

// kernel is what evaluating a constant or an arithmetic tree needs. Its
// result lives in the kernel's memory — registers borrowed from the
// evaluating operator's batchMem, or the constant's own cells — so a
// result is valid until the kernel's next EvalInto and a kernel belongs to
// one fragment.
type kernel struct {
	val   table.Value // the constant, when prog is empty
	prog  []fuseInstr
	regsI [][]int64
	regsF [][]float64
	iota  []int32
	out   table.Vector // header over the last register, or the constant's cells
}

// compileScalar compiles e against the input schema s and reports the
// type of its result.
func compileScalar(e Scalar, s *table.Schema) (FusedExpr, table.Type, error) {
	c := fuseCompiler{s: s}
	root, typ, err := c.compile(e)
	if err != nil {
		return FusedExpr{}, 0, err
	}
	if root.kind == fuseCol {
		return FusedExpr{col: root.idx}, typ, nil
	}
	k := &kernel{prog: c.prog, regsI: make([][]int64, c.maxI), regsF: make([][]float64, c.maxF)}
	k.out.Type = typ
	if v, ok := e.(*Const); ok {
		k.val = v.Val
	}
	return FusedExpr{k: k}, typ, nil
}

// fuseCompiler walks the tree postorder, allocating registers with a
// stack discipline per class (bank size = tree depth, not node count).
type fuseCompiler struct {
	s          *table.Schema
	prog       []fuseInstr
	liveI      int
	liveF      int
	maxI, maxF int
}

// compile returns where e's value comes from and its type. A leaf may be
// of any type — a projection passes strings through — but arithmetic is
// numeric, so a string under an Arith is refused here rather than met by
// a typed loop.
func (c *fuseCompiler) compile(e Scalar) (fuseArg, table.Type, error) {
	switch v := e.(type) {
	case *ColRef:
		t := c.s.Cols[v.Col].Type
		return fuseArg{kind: fuseCol, idx: v.Col, float: t.Physical() == table.PhysFloat}, t, nil
	case *Const:
		return fuseArg{kind: fuseConst, ci: v.Val.I, cf: v.Val.F,
			float: v.Val.Type.Physical() == table.PhysFloat}, v.Val.Type, nil
	case *Arith:
		l, lt, err := c.compile(v.L)
		if err != nil {
			return fuseArg{}, 0, err
		}
		r, rt, err := c.compile(v.R)
		if err != nil {
			return fuseArg{}, 0, err
		}
		t, err := ArithType(v.Op, lt, rt)
		if err != nil {
			return fuseArg{}, 0, fmt.Errorf("exec: %w in %v", err, v)
		}
		// Child registers die here; the stack discipline frees them
		// before the destination is allocated, so a chain reuses one
		// register per class instead of one per node.
		c.free(l)
		c.free(r)
		float := t == table.Float64
		dst := c.alloc(float)
		c.prog = append(c.prog, fuseInstr{op: v.Op, float: float, dst: dst, l: l, r: r})
		return fuseArg{kind: fuseReg, idx: dst, float: float}, t, nil
	}
	return fuseArg{}, 0, fmt.Errorf("exec: cannot compile scalar %T", e)
}

// ArithType is the type of l op r, for the binder and this compiler
// alike: a string operand, or a DATE beside an INT or a DECIMAL, is a type
// error; Div and any float operand give float64; integer arithmetic with a
// DECIMAL operand is DECIMAL, otherwise it keeps its left operand's type.
func ArithType(op ArithOp, l, r table.Type) (table.Type, error) {
	switch {
	case l == table.String || r == table.String,
		(l == table.Date) != (r == table.Date) && l.Physical() == r.Physical():
		return 0, fmt.Errorf("%w: %v %v %v", fault.ErrType, l, op, r)
	case op == Div || l == table.Float64 || r == table.Float64:
		return table.Float64, nil
	case r == table.Decimal:
		return r, nil
	}
	return l, nil
}

func (c *fuseCompiler) free(a fuseArg) {
	if a.kind != fuseReg {
		return
	}
	if a.float {
		c.liveF--
	} else {
		c.liveI--
	}
}

func (c *fuseCompiler) alloc(float bool) int {
	if float {
		c.liveF++
		if c.liveF > c.maxF {
			c.maxF = c.liveF
		}
		return c.liveF - 1
	}
	c.liveI++
	if c.liveI > c.maxI {
		c.maxI = c.liveI
	}
	return c.liveI - 1
}

// fOpd is a float-class operand resolved against one batch: exactly one
// of f/i is non-nil (column or register data, integers converted at
// read), else the constant c applies.
type fOpd struct {
	f []float64
	i []int64
	c float64
}

func (o *fOpd) at(idx int32) float64 {
	if o.f != nil {
		return o.f[idx]
	}
	if o.i != nil {
		return float64(o.i[idx])
	}
	return o.c
}

// iOpd is an int-class operand: data or constant.
type iOpd struct {
	i []int64
	c int64
}

func (o *iOpd) at(idx int32) int64 {
	if o.i != nil {
		return o.i[idx]
	}
	return o.c
}

func (k *kernel) resolveF(a fuseArg, b *table.Batch) fOpd {
	switch a.kind {
	case fuseCol:
		v := b.Vecs[a.idx]
		if a.float {
			return fOpd{f: v.F}
		}
		return fOpd{i: v.I}
	case fuseReg:
		if a.float {
			return fOpd{f: k.regsF[a.idx]}
		}
		return fOpd{i: k.regsI[a.idx]}
	default:
		if a.float {
			return fOpd{c: a.cf}
		}
		return fOpd{c: float64(a.ci)}
	}
}

func (k *kernel) resolveI(a fuseArg, b *table.Batch) iOpd {
	switch a.kind {
	case fuseCol:
		return iOpd{i: b.Vecs[a.idx].I}
	case fuseReg:
		return iOpd{i: k.regsI[a.idx]}
	default:
		return iOpd{c: a.ci}
	}
}

// EvalInto evaluates the expression over b and returns a vector of
// b.PhysRows() cells. A bare column and a bare constant charge nothing;
// a program charges one ProjectCyclesPerRow per Arith node per selected
// row, in one call. The program iterates the batch's selection (or the
// identity when dense), writing results at physical positions so an
// incoming Batch.Sel composes onto the output unchanged; deselected
// positions hold stale register values that no selection-honouring
// consumer reads — and it never reads a deselected input cell either.
// The registers and the identity selection are borrowed from m, the
// evaluating operator's memory, at the first batch, regrown through it for
// a larger one, and handed back by release.
func (e *FusedExpr) EvalInto(ctx *Ctx, b *table.Batch, m *batchMem) *table.Vector {
	k := e.k
	if k == nil {
		return b.Vecs[e.col]
	}
	n := b.PhysRows()
	if len(k.prog) == 0 {
		switch k.out.Type.Physical() {
		case table.PhysInt:
			k.out.I = constCells(k.out.I, k.val.I, n)
		case table.PhysFloat:
			k.out.F = constCells(k.out.F, k.val.F, n)
		default:
			k.out.S = constCells(k.out.S, k.val.S, n)
		}
		return &k.out
	}
	ctx.ChargeRows(b.Rows(), float64(len(k.prog))*ctx.Costs.ProjectCyclesPerRow)
	sel := b.Sel
	if sel == nil {
		sel = iotaSel(&m.sels, &k.iota, n)
	}
	for i := range k.regsI {
		k.regsI[i] = room(&m.ints, k.regsI[i], n)[:n]
	}
	for i := range k.regsF {
		k.regsF[i] = room(&m.floats, k.regsF[i], n)[:n]
	}
	for i := range k.prog {
		ins := &k.prog[i]
		if ins.float {
			l, r := k.resolveF(ins.l, b), k.resolveF(ins.r, b)
			fusedLoopF(ins.op, k.regsF[ins.dst], &l, &r, sel)
		} else {
			l, r := k.resolveI(ins.l, b), k.resolveI(ins.r, b)
			fusedLoopI(ins.op, k.regsI[ins.dst], &l, &r, sel)
		}
	}
	if last := &k.prog[len(k.prog)-1]; last.float {
		k.out.F = k.regsF[last.dst]
	} else {
		k.out.I = k.regsI[last.dst]
	}
	return &k.out
}

// release hands the expression's registers and identity selection back
// to m.
func (e *FusedExpr) release(m *batchMem) {
	k := e.k
	if k == nil {
		return
	}
	for i := range k.regsI {
		give(&m.ints, k.regsI[i])
		k.regsI[i] = nil
	}
	for i := range k.regsF {
		give(&m.floats, k.regsF[i])
		k.regsF[i] = nil
	}
	give(&m.sels, k.iota)
	k.iota = nil
	k.out.I, k.out.F = nil, nil
}

// constCells returns n cells of c. The cells are written once, when s
// is first too short, and allocated exactly, so every cell s can be
// resliced to already holds c.
func constCells[T any](s []T, c T, n int) []T {
	if cap(s) < n {
		s = make([]T, n)
		for i := range s {
			s[i] = c
		}
	}
	return s[:n]
}

// fusedLoopF runs one float64 instruction over the selected rows, the
// operator hoisted out of the loop like the filter kernels.
func fusedLoopF(op ArithOp, dst []float64, l, r *fOpd, sel []int32) {
	switch op {
	case Add:
		for _, i := range sel {
			dst[i] = l.at(i) + r.at(i)
		}
	case Sub:
		for _, i := range sel {
			dst[i] = l.at(i) - r.at(i)
		}
	case Mul:
		for _, i := range sel {
			dst[i] = l.at(i) * r.at(i)
		}
	default:
		for _, i := range sel {
			if d := r.at(i); d == 0 {
				dst[i] = 0
			} else {
				dst[i] = l.at(i) / d
			}
		}
	}
}

// fusedLoopI runs one wrapping int64 instruction over the selected rows.
// Div never lands here: the compiler promotes it to float64.
func fusedLoopI(op ArithOp, dst []int64, l, r *iOpd, sel []int32) {
	switch op {
	case Add:
		for _, i := range sel {
			dst[i] = l.at(i) + r.at(i)
		}
	case Sub:
		for _, i := range sel {
			dst[i] = l.at(i) - r.at(i)
		}
	case Mul:
		for _, i := range sel {
			dst[i] = l.at(i) * r.at(i)
		}
	default:
		for _, i := range sel {
			if d := r.at(i); d == 0 {
				dst[i] = 0
			} else {
				dst[i] = l.at(i) / d
			}
		}
	}
}
