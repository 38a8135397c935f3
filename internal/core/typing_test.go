package core

import (
	"errors"
	"math"
	"testing"

	"energydb/internal/opt"
	"energydb/internal/sql"
	"energydb/internal/table"
)

// typingCases are the edge statements of the typing rule (internal/sql's
// typeLit), run in order on one database: a statement, then the rows it
// returns in order or the sentinel it is refused with. An INSERT or CREATE
// returns no rows. They are written to be lifted as they are into a
// statement oracle's corpus.
var typingCases = []struct {
	stmt string
	rows [][]table.Value
	err  error
}{
	{stmt: `CREATE TABLE m (id INT, price DECIMAL, f DOUBLE)`},
	{stmt: `INSERT INTO m VALUES (1, 0.29, 0.29)`},
	{stmt: `INSERT INTO m VALUES (2, 1.15, 1.15)`},
	{stmt: `SELECT id, price * price AS x FROM m ORDER BY id`, rows: [][]table.Value{{iv(1), fv(0.0841)}, {iv(2), fv(1.3225)}}},
	{stmt: `SELECT id, price + 0.5 AS x FROM m ORDER BY id`, rows: [][]table.Value{{iv(1), fv(0.79)}, {iv(2), fv(1.65)}}},
	{stmt: `SELECT id, price * 2 AS x FROM m ORDER BY id`, rows: [][]table.Value{{iv(1), fv(0.58)}, {iv(2), fv(2.3)}}},
	{stmt: `SELECT id, price / 2 AS x FROM m ORDER BY id`, rows: [][]table.Value{{iv(1), fv(0.145)}, {iv(2), fv(0.575)}}},
	{stmt: `SELECT id, price + price AS x, price - 1 AS y, id + price AS z FROM m ORDER BY id`,
		rows: [][]table.Value{{iv(1), dv(58), dv(-71), dv(129)}, {iv(2), dv(230), dv(15), dv(315)}}},
	{stmt: `SELECT AVG(price) AS a FROM m`, rows: [][]table.Value{{fv(0.72)}}},
	{stmt: `SELECT SUM(price) AS s, MIN(price) AS lo, MAX(price) AS hi FROM m`, rows: [][]table.Value{{dv(144), dv(29), dv(115)}}},
	{stmt: `SELECT id FROM m WHERE price = 0.29`, rows: [][]table.Value{{iv(1)}}},
	{stmt: `SELECT id FROM m WHERE price < 1.16 ORDER BY id`, rows: [][]table.Value{{iv(1)}, {iv(2)}}},
	{stmt: `SELECT id FROM m WHERE price > 1.145`, rows: [][]table.Value{{iv(2)}}},
	{stmt: `SELECT id FROM m WHERE price >= 1.145`, rows: [][]table.Value{{iv(2)}}},
	{stmt: `SELECT id FROM m WHERE price <= 1.145`, rows: [][]table.Value{{iv(1)}}},
	{stmt: `SELECT id FROM m WHERE price = 1.145`},
	{stmt: `SELECT id FROM m WHERE price <> 0.295 ORDER BY id`, rows: [][]table.Value{{iv(1)}, {iv(2)}}},
	{stmt: `SELECT id FROM m WHERE price < 1`, rows: [][]table.Value{{iv(1)}}},
	{stmt: `SELECT id FROM m WHERE price < 92233720368547759 ORDER BY id`, rows: [][]table.Value{{iv(1)}, {iv(2)}}},
	{stmt: `SELECT id FROM m WHERE price > 92233720368547759`},
	{stmt: `SELECT id FROM m WHERE id = 1.5`},
	{stmt: `SELECT id FROM m WHERE id < 1.5`, rows: [][]table.Value{{iv(1)}}},
	{stmt: `SELECT id FROM m WHERE id <> 1.5 ORDER BY id`, rows: [][]table.Value{{iv(1)}, {iv(2)}}},
	{stmt: `SELECT id FROM m WHERE id >= 1.5`, rows: [][]table.Value{{iv(2)}}},
	{stmt: `SELECT id FROM m WHERE id > 1.5`, rows: [][]table.Value{{iv(2)}}},
	{stmt: `SELECT id FROM m WHERE id <= 1.5`, rows: [][]table.Value{{iv(1)}}},
	{stmt: `SELECT id FROM m WHERE id < 99999999999999999999.5 ORDER BY id`, rows: [][]table.Value{{iv(1)}, {iv(2)}}},
	{stmt: `SELECT id FROM m WHERE id >= 99999999999999999999.5`},
	{stmt: `SELECT id FROM m WHERE id > -99999999999999999999.5 ORDER BY id`, rows: [][]table.Value{{iv(1)}, {iv(2)}}},
	{stmt: `SELECT id FROM m WHERE id = 99999999999999999999.5`},
	{stmt: `SELECT id FROM m WHERE price = id`, err: sql.ErrType},
	{stmt: `SELECT price + DATE '2009-01-01' AS x FROM m`, err: sql.ErrType},
	{stmt: `INSERT INTO m VALUES (1.5, 1, 1)`, err: sql.ErrType},
	{stmt: `INSERT INTO m VALUES (9, 92233720368547759, 1)`, err: sql.ErrType},
	{stmt: `INSERT INTO m VALUES (9, 'x', 1)`, err: sql.ErrType},
	{stmt: `INSERT INTO m VALUES (9, 1)`, err: sql.ErrType},
	{stmt: `INSERT INTO m VALUES (3, 29, 1), (4, -0.29, -0.5), (5, 1.145, 0)`},
	{stmt: `SELECT id, price, f FROM m WHERE id >= 3 ORDER BY id`,
		rows: [][]table.Value{{iv(3), dv(2900), fv(1)}, {iv(4), dv(-29), fv(-0.5)}, {iv(5), dv(115), fv(0)}}},
	{stmt: `SELECT id, 1 - price AS x FROM m WHERE id <= 2 ORDER BY id`, rows: [][]table.Value{{iv(1), dv(71)}, {iv(2), dv(-15)}}},
	{stmt: `SELECT price + 92233720368547759 AS x FROM m`, err: sql.ErrType},
	{stmt: `SELECT price - 92233720368547759 AS x FROM m`, err: sql.ErrType},
	{stmt: `SELECT id FROM m WHERE id < DATE '1970-01-03'`, err: sql.ErrType},
	{stmt: `CREATE TABLE md (id INT, d DATE)`},
	{stmt: `INSERT INTO md VALUES (1, DATE '1970-01-02'), (3, DATE '1969-12-31')`},
	{stmt: `INSERT INTO md VALUES (2, 5)`, err: sql.ErrType},
	{stmt: `INSERT INTO md VALUES (DATE '1970-01-01', DATE '1970-01-01')`, err: sql.ErrType},
	{stmt: `SELECT id + d AS x FROM md`, err: sql.ErrType},
	{stmt: `SELECT d - 1 AS x FROM md`, err: sql.ErrType},
	{stmt: `SELECT id FROM md WHERE d = id`, err: sql.ErrType},
	{stmt: `SELECT id FROM md WHERE d < 1`, err: sql.ErrType},
	{stmt: `SELECT id, d FROM md WHERE d < DATE '1970-01-03' ORDER BY id`,
		rows: [][]table.Value{{iv(1), table.DateVal(1)}, {iv(3), table.DateVal(-1)}}},
}

func iv(v int64) table.Value   { return table.IntVal(v) }
func fv(v float64) table.Value { return table.FloatVal(v) }
func dv(c int64) table.Value   { return table.DecimalVal(c) } // cents

// TestTypingRuleThroughExec runs typingCases through DB.Exec: ints and
// decimals compare exactly and floats within 1e-12 relative.
func TestTypingRuleThroughExec(t *testing.T) {
	db := smallDB(t, opt.MinTime)
	for _, c := range typingCases {
		res, err := db.Exec(c.stmt)
		if c.err != nil || err != nil {
			if !errors.Is(err, c.err) {
				t.Errorf("%s: error %v, want %v", c.stmt, err, c.err)
			}
			continue
		}
		n := 0
		if res.Rows != nil {
			n = res.Rows.Rows()
		}
		if n != len(c.rows) {
			t.Errorf("%s: %d rows, want %d", c.stmt, n, len(c.rows))
			continue
		}
		for r, want := range c.rows {
			for col, w := range want {
				g := res.Rows.Column(col).Value(r)
				if g.Type != w.Type || g.I != w.I || g.S != w.S || math.Abs(g.F-w.F) > 1e-12*math.Abs(w.F) {
					t.Errorf("%s: row %d column %d is %v %v, want %v %v", c.stmt, r, col, g.Type, g, w.Type, w)
				}
			}
		}
	}
}
