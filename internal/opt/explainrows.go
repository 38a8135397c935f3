package opt

import (
	"strings"

	"energydb/internal/table"
)

// This file renders a plan as a relation, so EXPLAIN can flow through
// the session API and the wire protocol like any query result: one row
// per operator in pre-order, the tree shape carried by indentation of
// the op column.

// ExplainSchema is the row shape of Plan.ExplainRows: operator (indented
// by depth), a human-readable detail string, the operator's degree of
// parallelism, the plan's CPU operating point, and the optimizer's
// cumulative cost at that node in milliseconds and joules.
var ExplainSchema = table.NewSchema("explain",
	table.Col("op", table.String),
	table.Col("detail", table.String),
	table.Col("dop", table.Int64),
	table.Col("pstate", table.String),
	table.Col("est_ms", table.Float64),
	table.Col("est_joules", table.Float64),
)

// ExplainRows renders the plan as rows of ExplainSchema. Costs are
// cumulative per node (a node's cost includes its inputs, matching
// Cost()), and every row carries the plan-wide P-state so the relation
// is self-describing even after a slice.
func (p *Plan) ExplainRows() *table.Table {
	out := table.NewTable(ExplainSchema)
	ps := p.PStateName
	if ps == "" {
		ps = "P0"
	}
	walk(p.Root, 0, func(n PhysNode, depth int) {
		op, detail, _ := n.describe()
		c := n.Cost()
		out.AppendRow(
			table.StrVal(strings.Repeat("  ", depth)+op),
			table.StrVal(detail),
			table.IntVal(int64(n.MaxDOP())),
			table.StrVal(ps),
			table.FloatVal(c.Seconds*1000),
			table.FloatVal(c.Joules),
		)
	})
	return out
}
