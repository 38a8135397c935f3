package sql

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"energydb/internal/table"
)

// ErrSyntax is the sentinel every lexer and parser error wraps, and
// ParseDate's: the text is not a statement of the dialect. Match with
// errors.Is, not the message.
var ErrSyntax = errors.New("syntax error")

// Parse parses one SQL statement.
func Parse(src string) (*Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return st, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) at(k tokKind, text string) bool {
	t := p.cur()
	return t.kind == k && (text == "" || t.text == text)
}

func (p *parser) accept(k tokKind, text string) bool {
	if p.at(k, text) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(k tokKind, text string) (token, error) {
	if p.at(k, text) {
		t := p.cur()
		p.i++
		return t, nil
	}
	return token{}, p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %w: %s (at byte %d)", ErrSyntax, fmt.Sprintf(format, args...), p.cur().pos)
}

func (p *parser) parseStmt() (*Stmt, error) {
	switch {
	case p.accept(tokKeyword, "EXPLAIN"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Stmt{Select: sel, Explain: true}, nil
	case p.at(tokKeyword, "SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Stmt{Select: sel}, nil
	case p.accept(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.accept(tokKeyword, "INSERT"):
		return p.parseInsert()
	default:
		return nil, p.errf("expected SELECT, CREATE, INSERT or EXPLAIN")
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}

	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, *item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}

	// FROM.
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, *tr)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}

	// JOIN ... ON a = b (INNER only).
	for {
		if p.accept(tokKeyword, "INNER") {
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
		} else if !p.accept(tokKeyword, "JOIN") {
			break
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "ON"); err != nil {
			return nil, err
		}
		l, err := p.parseColName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		r, err := p.parseColName()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: *tr, Left: *l, Right: *r})
	}

	// WHERE (conjunction of simple comparisons).
	if p.accept(tokKeyword, "WHERE") {
		for {
			pred, err := p.parseWherePred()
			if err != nil {
				return nil, err
			}
			sel.Where = append(sel.Where, pred...)
			if !p.accept(tokKeyword, "AND") {
				break
			}
		}
	}

	// GROUP BY.
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColName()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, *c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}

	// ORDER BY.
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			var item OrderItem
			if p.at(tokInt, "") {
				n, _ := strconv.Atoi(p.cur().text)
				p.i++
				item.Pos = n
			} else {
				c, err := p.parseColName()
				if err != nil {
					return nil, err
				}
				if c.Table != "" {
					return nil, p.errf("ORDER BY takes output names, not qualified columns")
				}
				item.Name = c.Col
			}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}

	// LIMIT.
	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokInt, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (*SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return &SelectItem{Star: true}, nil
	}
	// Aggregate call?
	if p.cur().kind == tokKeyword {
		switch p.cur().text {
		case "COUNT", "SUM", "MIN", "MAX", "AVG":
			fn := p.cur().text
			p.i++
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			agg := &AggCall{Func: fn}
			if p.accept(tokSymbol, "*") {
				if fn != "COUNT" {
					return nil, p.errf("%s(*) is not valid", fn)
				}
				agg.Star = true
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				agg.Arg = e
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			item := &SelectItem{Agg: agg}
			item.As = p.parseAlias()
			return item, nil
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	item.As = p.parseAlias()
	return item, nil
}

func (p *parser) parseAlias() string {
	if p.accept(tokKeyword, "AS") {
		if p.cur().kind == tokIdent {
			a := p.cur().text
			p.i++
			return a
		}
	} else if p.cur().kind == tokIdent {
		a := p.cur().text
		p.i++
		return a
	}
	return ""
}

func (p *parser) parseTableRef() (*TableRef, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	tr := &TableRef{Name: t.text, Alias: t.text}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		tr.Alias = a.text
	} else if p.cur().kind == tokIdent {
		tr.Alias = p.cur().text
		p.i++
	}
	return tr, nil
}

func (p *parser) parseColName() (*ColName, error) {
	t, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	c := &ColName{Col: t.text}
	if p.accept(tokSymbol, ".") {
		t2, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		c.Table = t.text
		c.Col = t2.text
	}
	return c, nil
}

// parseWherePred parses one comparison, expanding BETWEEN to two preds.
func (p *parser) parseWherePred() ([]WherePred, error) {
	l, err := p.parseColName()
	if err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "BETWEEN") {
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return []WherePred{
			{Left: *l, Op: ">=", Lit: lo},
			{Left: *l, Op: "<=", Lit: hi},
		}, nil
	}
	opTok := p.cur()
	switch opTok.text {
	case "=", "<>", "<", "<=", ">", ">=":
		p.i++
	default:
		return nil, p.errf("expected comparison operator, found %q", opTok.text)
	}
	pred := WherePred{Left: *l, Op: opTok.text}
	if p.cur().kind == tokIdent {
		r, err := p.parseColName()
		if err != nil {
			return nil, err
		}
		pred.Right = r
		return []WherePred{pred}, nil
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	pred.Lit = lit
	return []WherePred{pred}, nil
}

// parseLiteral parses an int, float, string or DATE 'YYYY-MM-DD' literal.
func (p *parser) parseLiteral() (*table.Value, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.i++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", t.text)
		}
		v := table.IntVal(n)
		return &v, nil
	case t.kind == tokFloat:
		p.i++
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", t.text)
		}
		v := table.FloatVal(f)
		return &v, nil
	case t.kind == tokString:
		p.i++
		v := table.StrVal(t.text)
		return &v, nil
	case t.kind == tokKeyword && t.text == "DATE":
		p.i++
		s, err := p.expect(tokString, "")
		if err != nil {
			return nil, err
		}
		days, err := ParseDate(s.text)
		if err != nil {
			return nil, p.errf("bad date %q", s.text)
		}
		v := table.DateVal(days)
		return &v, nil
	case t.kind == tokSymbol && t.text == "-":
		p.i++
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		switch v.Type.Physical() {
		case table.PhysInt:
			v.I = -v.I
		case table.PhysFloat:
			v.F = -v.F
		default:
			return nil, p.errf("cannot negate a string")
		}
		return v, nil
	default:
		return nil, p.errf("expected literal, found %q", t.text)
	}
}

// ParseDate converts 'YYYY-MM-DD' to days since 1970-01-01.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("sql: %w: bad date %q", ErrSyntax, s)
	}
	return t.Unix() / 86400, nil
}

// FormatDate converts days since 1970-01-01 back to 'YYYY-MM-DD'.
func FormatDate(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// parseExpr parses + and - over terms.
func (p *parser) parseExpr() (*AstExpr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "+"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &AstExpr{Op: "+", L: l, R: r}
		case p.accept(tokSymbol, "-"):
			r, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			l = &AstExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseTerm() (*AstExpr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "*"):
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &AstExpr{Op: "*", L: l, R: r}
		case p.accept(tokSymbol, "/"):
			r, err := p.parseFactor()
			if err != nil {
				return nil, err
			}
			l = &AstExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseFactor() (*AstExpr, error) {
	if p.accept(tokSymbol, "(") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	if p.cur().kind == tokIdent {
		c, err := p.parseColName()
		if err != nil {
			return nil, err
		}
		return &AstExpr{Col: c}, nil
	}
	lit, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	return &AstExpr{Lit: lit}, nil
}

func (p *parser) parseCreate() (*Stmt, error) {
	if _, err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	cs := &CreateStmt{Name: name.text}
	for {
		cn, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		ty, width, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if width > 0 {
			cs.Cols = append(cs.Cols, table.ColW(cn.text, ty, width))
		} else {
			cs.Cols = append(cs.Cols, table.Col(cn.text, ty))
		}
		if p.accept(tokSymbol, ",") {
			continue
		}
		break
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &Stmt{Create: cs}, nil
}

func (p *parser) parseType() (table.Type, int, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return 0, 0, p.errf("expected type, found %q", t.text)
	}
	p.i++
	switch t.text {
	case "INT", "BIGINT":
		return table.Int64, 0, nil
	case "FLOAT", "DOUBLE":
		return table.Float64, 0, nil
	case "DATE":
		return table.Date, 0, nil
	case "DECIMAL":
		return table.Decimal, 0, nil
	case "TEXT":
		return table.String, 0, nil
	case "VARCHAR", "CHAR":
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return 0, 0, err
		}
		n, err := p.expect(tokInt, "")
		if err != nil {
			return 0, 0, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return 0, 0, err
		}
		w, _ := strconv.Atoi(n.text)
		return table.String, w, nil
	default:
		return 0, 0, p.errf("unknown type %q", t.text)
	}
}

func (p *parser) parseInsert() (*Stmt, error) {
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name.text}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []table.Value
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, *v)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return &Stmt{Insert: ins}, nil
}
