package tpch

import (
	"fmt"
	"math/rand"

	"energydb/internal/compress"
	"energydb/internal/table"
)

// Cardinality factors per unit scale factor, as in the TPC-H spec.
const (
	suppliersPerSF = 10000
	customersPerSF = 150000
	partsPerSF     = 200000
	ordersPerSF    = 1500000
	psPerPart      = 4
	maxLines       = 7
)

var (
	regions  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	prios    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	modes    = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	types    = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	// Date range 1992-01-01 .. 1998-08-02 in days since the Unix epoch.
	dateLo = int64(8035)
	dateHi = int64(10440)
)

// DB is a generated TPC-H database.
type DB struct {
	SF     float64
	Tables map[string]*table.Table
}

// Generate builds a deterministic TPC-H database at the given scale
// factor. The same (sf, seed) always yields identical data.
func Generate(sf float64, seed int64) *DB {
	if sf <= 0 {
		panic(fmt.Sprintf("tpch: scale factor %v", sf))
	}
	rng := rand.New(rand.NewSource(seed))
	db := &DB{SF: sf, Tables: map[string]*table.Table{}}

	// region, nation: fixed.
	region := table.NewTable(Region())
	for i, r := range regions {
		region.AppendRow(table.IntVal(int64(i)), table.StrVal(r))
	}
	db.Tables["region"] = region

	nation := table.NewTable(Nation())
	for i, n := range nations {
		nation.AppendRow(table.IntVal(int64(i)), table.StrVal(n), table.IntVal(int64(i%len(regions))))
	}
	db.Tables["nation"] = nation

	nSupp := scaled(suppliersPerSF, sf)
	supplier := table.NewTable(Supplier())
	for i := 1; i <= nSupp; i++ {
		supplier.AppendRow(
			table.IntVal(int64(i)),
			table.StrVal(fmt.Sprintf("Supplier#%09d", i)),
			table.IntVal(int64(rng.Intn(len(nations)))),
			table.FloatVal(round2(-999.99+rng.Float64()*10998.98)),
		)
	}
	db.Tables["supplier"] = supplier

	nCust := scaled(customersPerSF, sf)
	customer := table.NewTable(Customer())
	for i := 1; i <= nCust; i++ {
		customer.AppendRow(
			table.IntVal(int64(i)),
			table.StrVal(fmt.Sprintf("Customer#%09d", i)),
			table.IntVal(int64(rng.Intn(len(nations)))),
			table.FloatVal(round2(-999.99+rng.Float64()*10998.98)),
			table.StrVal(segments[rng.Intn(len(segments))]),
		)
	}
	db.Tables["customer"] = customer

	nPart := scaled(partsPerSF, sf)
	part := table.NewTable(Part())
	for i := 1; i <= nPart; i++ {
		part.AppendRow(
			table.IntVal(int64(i)),
			table.StrVal(fmt.Sprintf("part %s %d", types[rng.Intn(len(types))], i)),
			table.StrVal(fmt.Sprintf("Brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
			table.StrVal(types[rng.Intn(len(types))]+" PLATED"),
			table.IntVal(int64(1+rng.Intn(50))),
			table.FloatVal(round2(900+float64(i%1000))),
		)
	}
	db.Tables["part"] = part

	partsupp := table.NewTable(PartSupp())
	for i := 1; i <= nPart; i++ {
		for j := 0; j < psPerPart; j++ {
			partsupp.AppendRow(
				table.IntVal(int64(i)),
				table.IntVal(int64(1+(i+j*nPart/psPerPart)%maxInt(nSupp, 1))),
				table.IntVal(int64(1+rng.Intn(9999))),
				table.FloatVal(round2(1+rng.Float64()*999)),
			)
		}
	}
	db.Tables["partsupp"] = partsupp

	nOrders := scaled(ordersPerSF, sf)
	orders := table.NewTable(Orders())
	lineitem := table.NewTable(Lineitem())
	statuses := []string{"F", "O", "P"}
	flags := []string{"A", "N", "R"}
	for i := 1; i <= nOrders; i++ {
		odate := dateLo + rng.Int63n(dateHi-dateLo)
		nLines := 1 + rng.Intn(maxLines)
		var total float64
		for ln := 1; ln <= nLines; ln++ {
			qty := float64(1 + rng.Intn(50))
			price := round2(qty * (900 + rng.Float64()*10000) / 10)
			disc := float64(rng.Intn(11)) / 100
			tax := float64(rng.Intn(9)) / 100
			ship := odate + 1 + rng.Int63n(121)
			flag := "N"
			status := "O"
			if ship < dateHi-200 {
				flag = flags[rng.Intn(len(flags))]
				status = "F"
			}
			lineitem.AppendRow(
				table.IntVal(int64(i)),
				table.IntVal(int64(1+rng.Intn(maxInt(nPart, 1)))),
				table.IntVal(int64(1+rng.Intn(maxInt(nSupp, 1)))),
				table.IntVal(int64(ln)),
				table.FloatVal(qty),
				table.FloatVal(price),
				table.FloatVal(disc),
				table.FloatVal(tax),
				table.StrVal(flag),
				table.StrVal(status),
				table.DateVal(ship),
				table.StrVal(modes[rng.Intn(len(modes))]),
			)
			total += price * (1 - disc) * (1 + tax)
		}
		orders.AppendRow(
			table.IntVal(int64(i)),
			table.IntVal(int64(1+rng.Intn(maxInt(nCust, 1)))),
			table.StrVal(statuses[rng.Intn(len(statuses))]),
			table.FloatVal(round2(total)),
			table.DateVal(odate),
			table.StrVal(prios[rng.Intn(len(prios))]),
			table.StrVal(fmt.Sprintf("Clerk#%09d", 1+rng.Intn(1000))),
		)
	}
	db.Tables["orders"] = orders
	db.Tables["lineitem"] = lineitem
	return db
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 1 {
		n = 1
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func round2(f float64) float64 {
	return float64(int64(f*100+0.5)) / 100
}

// DefaultCodecs picks a per-column codec the way a column store's
// physical designer would: deltas for monotone keys, bit-packing for
// small-domain ints and dates, dictionaries for strings, and LZ for
// floats — TPC-H's are low-cardinality (quantities, discounts, taxes) or
// share their high-order bytes (prices), so a byte-level matcher finds
// what a numeric codec would not.
func DefaultCodecs(s *table.Schema) []compress.Codec {
	out := make([]compress.Codec, len(s.Cols))
	for i, c := range s.Cols {
		switch {
		case c.Type == table.Date:
			out[i] = compress.Bitpack
		case c.Type.Physical() == table.PhysInt:
			if i == 0 { // leading keys are near-monotone
				out[i] = compress.Delta
			} else {
				out[i] = compress.Bitpack
			}
		case c.Type.Physical() == table.PhysString:
			out[i] = compress.Dict
		default:
			out[i] = compress.LZ
		}
	}
	return out
}

// RawCodecs returns the uncompressed placement's codec list.
func RawCodecs(s *table.Schema) []compress.Codec {
	out := make([]compress.Codec, len(s.Cols))
	for i := range out {
		out[i] = compress.Raw
	}
	return out
}
