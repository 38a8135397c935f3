// Package tpch provides a deterministic TPC-H-like workload: the eight
// benchmark schemas, a scale-factor-parameterised data generator in the
// spirit of dbgen, the simplified query set the experiments run, and
// sensible per-column compression defaults.
//
// The paper's Figure 1 runs the TPC-H *throughput test* at 300 GB scale on
// a commercial system; we generate reduced scale factors (the simulator's
// device constants are what carry the timing) with the same schema shapes
// and value distributions.
package tpch

import "energydb/internal/table"

// Schemas returns the eight TPC-H table schemas keyed by name.
func Schemas() map[string]*table.Schema {
	return map[string]*table.Schema{
		"region":   Region(),
		"nation":   Nation(),
		"supplier": Supplier(),
		"customer": Customer(),
		"part":     Part(),
		"partsupp": PartSupp(),
		"orders":   Orders(),
		"lineitem": Lineitem(),
	}
}

// Region returns the REGION schema.
func Region() *table.Schema {
	return table.NewSchema("region",
		table.Col("r_regionkey", table.Int64),
		table.ColW("r_name", table.String, 12),
	)
}

// Nation returns the NATION schema.
func Nation() *table.Schema {
	return table.NewSchema("nation",
		table.Col("n_nationkey", table.Int64),
		table.ColW("n_name", table.String, 15),
		table.Col("n_regionkey", table.Int64),
	)
}

// Supplier returns the SUPPLIER schema.
func Supplier() *table.Schema {
	return table.NewSchema("supplier",
		table.Col("s_suppkey", table.Int64),
		table.ColW("s_name", table.String, 18),
		table.Col("s_nationkey", table.Int64),
		table.Col("s_acctbal", table.Float64),
	)
}

// Customer returns the CUSTOMER schema.
func Customer() *table.Schema {
	return table.NewSchema("customer",
		table.Col("c_custkey", table.Int64),
		table.ColW("c_name", table.String, 18),
		table.Col("c_nationkey", table.Int64),
		table.Col("c_acctbal", table.Float64),
		table.ColW("c_mktsegment", table.String, 10),
	)
}

// Part returns the PART schema.
func Part() *table.Schema {
	return table.NewSchema("part",
		table.Col("p_partkey", table.Int64),
		table.ColW("p_name", table.String, 30),
		table.ColW("p_brand", table.String, 10),
		table.ColW("p_type", table.String, 20),
		table.Col("p_size", table.Int64),
		table.Col("p_retailprice", table.Float64),
	)
}

// PartSupp returns the PARTSUPP schema.
func PartSupp() *table.Schema {
	return table.NewSchema("partsupp",
		table.Col("ps_partkey", table.Int64),
		table.Col("ps_suppkey", table.Int64),
		table.Col("ps_availqty", table.Int64),
		table.Col("ps_supplycost", table.Float64),
	)
}

// Orders returns the ORDERS schema (the seven attributes the paper's
// Figure 2 scan draws on).
func Orders() *table.Schema {
	return table.NewSchema("orders",
		table.Col("o_orderkey", table.Int64),
		table.Col("o_custkey", table.Int64),
		table.ColW("o_orderstatus", table.String, 1),
		table.Col("o_totalprice", table.Float64),
		table.Col("o_orderdate", table.Date),
		table.ColW("o_orderpriority", table.String, 15),
		table.ColW("o_clerk", table.String, 15),
	)
}

// Lineitem returns the LINEITEM schema.
func Lineitem() *table.Schema {
	return table.NewSchema("lineitem",
		table.Col("l_orderkey", table.Int64),
		table.Col("l_partkey", table.Int64),
		table.Col("l_suppkey", table.Int64),
		table.Col("l_linenumber", table.Int64),
		table.Col("l_quantity", table.Float64),
		table.Col("l_extendedprice", table.Float64),
		table.Col("l_discount", table.Float64),
		table.Col("l_tax", table.Float64),
		table.ColW("l_returnflag", table.String, 1),
		table.ColW("l_linestatus", table.String, 1),
		table.Col("l_shipdate", table.Date),
		table.ColW("l_shipmode", table.String, 10),
	)
}
