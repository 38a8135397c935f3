package sql

import (
	"math"
	"math/big"
	"strconv"
	"testing"

	"energydb/internal/exec"
	"energydb/internal/table"
)

// FuzzCoerce holds the comparison half of the typing rule to exact
// arithmetic: a row of an INT column (value x) or a DECIMAL column (x
// cents) is kept by the predicates bindPred makes of "v <op> lit" exactly
// when x (or x/100) <op> lit holds as a math/big.Rat comparison, with lit
// read as its shortest decimal form. An integral lit inside int64 is tried
// as an integer literal too. The rule is exact at every int64, so x is not
// narrowed.
func FuzzCoerce(f *testing.F) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for op := range ops {
		for _, c := range []struct {
			x   int64
			dec bool
			lit float64
		}{
			{29, true, 0.29}, {115, true, 1.16}, {115, true, 1.145}, {114, true, 1.145},
			{1, false, 1.5}, {2, false, 1.5},
			{0, false, 0}, {0, true, math.Copysign(0, -1)}, {-1, false, math.Copysign(0, -1)},
			{math.MaxInt64, false, 99999999999999999999.5}, {math.MinInt64, false, -99999999999999999999.5},
			{math.MaxInt64, true, 92233720368547759}, {-5, true, -92233720368547759},
		} {
			f.Add(c.x, c.dec, uint8(op), c.lit)
		}
	}
	f.Fuzz(func(t *testing.T, x int64, dec bool, op uint8, lit float64) {
		if math.IsNaN(lit) || math.IsInf(lit, 0) {
			return // the parser makes neither
		}
		typ, unit := table.Int64, int64(1)
		if dec {
			typ, unit = table.Decimal, 100
		}
		b := &binder{aliases: []string{"t"}, schemas: map[string]*table.Schema{"t": table.NewSchema("t", table.Col("v", typ))}}
		want, _ := new(big.Rat).SetString(strconv.FormatFloat(lit, 'g', -1, 64))
		cmp := new(big.Rat).SetFrac(big.NewInt(x), big.NewInt(unit)).Cmp(want)
		sym := ops[int(op)%len(ops)]
		lits := []table.Value{table.FloatVal(lit)}
		if lit == math.Trunc(lit) && math.Abs(lit) < 1<<63 {
			lits = append(lits, table.IntVal(int64(lit)))
		}
		for _, v := range lits {
			preds, err := b.bindPred(nil, WherePred{Left: ColName{Col: "v"}, Op: sym, Lit: &v})
			if err != nil {
				t.Fatalf("%v %s %v: %v", typ, sym, v, err)
			}
			kept := true
			for _, p := range preds {
				kept = kept && holds(p.Op, table.Value{Type: typ, I: x}.Compare(p.Val))
			}
			if kept != holds(cmpOps[sym], cmp) {
				t.Fatalf("%v %d %s %v literal %v: bound to %v, keeps it: %v", typ, x, sym, v.Type, v, preds, kept)
			}
		}
	})
}

// holds reports whether a comparison whose sides order as cmp satisfies op.
func holds(op exec.CmpOp, cmp int) bool {
	switch op {
	case exec.Eq:
		return cmp == 0
	case exec.Ne:
		return cmp != 0
	case exec.Lt:
		return cmp < 0
	case exec.Le:
		return cmp <= 0
	case exec.Gt:
		return cmp > 0
	}
	return cmp >= 0
}
