package gsql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ErrNotOneStatement is the error Parse wraps when the text holds no
// statement or several: a caller that also takes scripts falls back to
// ParseAll on it.
var ErrNotOneStatement = errors.New("gsql: expected one statement")

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("%w, got %d", ErrNotOneStatement, len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script into statements.
func ParseAll(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	var stmts []Statement
	for {
		for p.peekSym(";") {
			p.next()
		}
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.peekSym(";") && p.peek().kind != tokEOF {
			return nil, p.errHere("expected ';' or end of input after statement")
		}
	}
	return stmts, nil
}

// StatementsComplete reports whether src ends at a statement boundary — a
// ';' outside string literals and comments — so a REPL can decide when to
// stop accumulating input lines and hand the buffer to ExecScript. It runs
// the same lexer the parser uses, so a ';' inside a string never splits a
// statement the way naive text scanning would. Lexically incomplete input
// (an unterminated string literal) reports false; other lexical errors
// report true so executing the buffer surfaces them.
func StatementsComplete(src string) bool {
	toks, err := lex(src)
	if err != nil {
		return !errors.Is(err, errUnterminatedString)
	}
	if len(toks) < 2 { // EOF only: blank or comment-only buffer
		return false
	}
	last := toks[len(toks)-2]
	return last.kind == tokSymbol && last.text == ";"
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	src  string
	toks []token
	pos  int

	// Placeholder numbering state, reset per statement. `?` placeholders
	// auto-number left to right; `$n` placeholders are explicit. Mixing the
	// two styles in one statement is rejected.
	qmarks     int  // `?` placeholders seen so far
	dollarSeen bool // a `$n` placeholder was seen
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errHere(format string, args ...any) error {
	return errAt(p.peek().pos, p.src, "%s (at %q)", fmt.Sprintf(format, args...), p.peek().text)
}

// peekKw reports whether the next token is the given keyword.
func (p *parser) peekKw(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

// peekSym reports whether the next token is the given symbol.
func (p *parser) peekSym(s string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == s
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(kw string) bool {
	if p.peekKw(kw) {
		p.next()
		return true
	}
	return false
}

// acceptSym consumes the symbol if present.
func (p *parser) acceptSym(s string) bool {
	if p.peekSym(s) {
		p.next()
		return true
	}
	return false
}

// expectKw consumes the keyword or fails.
func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errHere("expected %s", kw)
	}
	return nil
}

// expectSym consumes the symbol or fails.
func (p *parser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return p.errHere("expected %q", s)
	}
	return nil
}

// ident consumes an identifier (keywords are not identifiers).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errHere("expected identifier")
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	p.qmarks, p.dollarSeen = 0, false
	switch t := p.peek(); {
	case t.kind == tokKeyword:
		switch t.text {
		case "SELECT":
			return p.parseSelect()
		case "INSERT":
			return p.parseInsert()
		case "UPDATE":
			return p.parseUpdate()
		case "DELETE":
			return p.parseDelete()
		case "CREATE":
			return p.parseCreateTable()
		case "DROP":
			return p.parseDropTable()
		case "BEGIN":
			p.next()
			return &Begin{}, nil
		case "COMMIT":
			p.next()
			return &Commit{}, nil
		case "ROLLBACK", "ABORT":
			p.next()
			return &Rollback{}, nil
		case "SET":
			return p.parseSet()
		case "SHOW":
			return p.parseShow()
		case "EXPLAIN":
			p.next()
			analyze := p.acceptKw("ANALYZE")
			inner, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			if _, ok := inner.(*Select); !ok {
				return nil, fmt.Errorf("gsql: EXPLAIN supports SELECT only")
			}
			return &Explain{Stmt: inner, Analyze: analyze}, nil
		}
	}
	return nil, p.errHere("expected a statement")
}

// ---- CREATE / DROP ----

// typeNames maps SQL type keywords to normalized names.
var typeNames = map[string]string{
	"BIGINT": "BIGINT", "INT": "BIGINT", "INTEGER": "BIGINT",
	"DOUBLE": "DOUBLE", "FLOAT": "DOUBLE", "DECIMAL": "DOUBLE", "NUMERIC": "DOUBLE",
	"TEXT": "TEXT", "VARCHAR": "TEXT", "CHAR": "TEXT", "TIMESTAMP": "TEXT",
	"BYTES": "BYTES", "BLOB": "BYTES",
	"BOOL": "BOOL", "BOOLEAN": "BOOL",
}

func (p *parser) parseCreateTable() (Statement, error) {
	p.next() // CREATE
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		switch {
		case p.peekKw("PRIMARY"):
			p.next()
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			if len(ct.PK) > 0 {
				return nil, fmt.Errorf("gsql: duplicate PRIMARY KEY clause")
			}
			ct.PK = cols
		case p.peekKw("INDEX"):
			p.next()
			ixName, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols, err := p.parseIdentList()
			if err != nil {
				return nil, err
			}
			ct.Indexes = append(ct.Indexes, IndexDef{Name: ixName, Cols: cols})
		default:
			colName, err := p.ident()
			if err != nil {
				return nil, err
			}
			tt := p.peek()
			if tt.kind != tokKeyword {
				return nil, p.errHere("expected a column type")
			}
			norm, ok := typeNames[tt.text]
			if !ok {
				return nil, p.errHere("unsupported column type %s", tt.text)
			}
			p.next()
			// Swallow optional length like VARCHAR(16).
			if p.acceptSym("(") {
				if p.peek().kind != tokNumber {
					return nil, p.errHere("expected a type length")
				}
				p.next()
				if p.acceptSym(",") { // DECIMAL(10,2)
					if p.peek().kind != tokNumber {
						return nil, p.errHere("expected a type scale")
					}
					p.next()
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			ct.Columns = append(ct.Columns, ColumnDef{Name: colName, Type: norm})
		}
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if p.acceptKw("SHARD") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if ct.ShardBy, err = p.ident(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("WITH") {
		if err := p.expectKw("SYNC"); err != nil {
			return nil, err
		}
		if err := p.expectKw("REPLICATION"); err != nil {
			return nil, err
		}
		ct.Sync = true
	}
	if len(ct.PK) == 0 {
		return nil, fmt.Errorf("gsql: CREATE TABLE %s: PRIMARY KEY is required", name)
	}
	return ct, nil
}

// parseIdentList parses "( ident, ident, ... )".
func (p *parser) parseIdentList() ([]string, error) {
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) parseDropTable() (Statement, error) {
	p.next() // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

// ---- INSERT ----

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.peekSym("(") {
		if ins.Cols, err = p.parseIdentList(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	return ins, nil
}

// ---- SELECT ----

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	sel := &Select{Limit: -1}
	if p.acceptKw("DISTINCT") {
		sel.Distinct = true
	}
	// Select list.
	for {
		item := SelectItem{}
		if p.peekSym("*") {
			p.next()
			item.Expr = &Star{}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.Expr = e
			if p.acceptKw("AS") {
				if item.Alias, err = p.ident(); err != nil {
					return nil, err
				}
			} else if p.peek().kind == tokIdent {
				item.Alias = p.next().text
			}
		}
		sel.Items = append(sel.Items, item)
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	sel.From = from
	if p.acceptKw("INNER") {
		if err := p.expectKw("JOIN"); err != nil {
			return nil, err
		}
		if err := p.parseJoinTail(sel); err != nil {
			return nil, err
		}
	} else if p.acceptKw("JOIN") {
		if err := p.parseJoinTail(sel); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("WHERE") {
		if sel.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("HAVING") {
		if sel.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			o := OrderItem{}
			if o.Expr, err = p.parseExpr(); err != nil {
				return nil, err
			}
			if p.acceptKw("DESC") {
				o.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, o)
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		if p.peek().kind == tokPlaceholder {
			if sel.LimitExpr, err = p.parsePlaceholder(); err != nil {
				return nil, err
			}
		} else {
			t := p.peek()
			if t.kind != tokNumber {
				return nil, p.errHere("expected a LIMIT count")
			}
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil || n < 0 {
				return nil, p.errHere("invalid LIMIT %q", t.text)
			}
			p.next()
			sel.Limit = n
		}
	}
	if p.acceptKw("OFFSET") {
		if p.peek().kind == tokPlaceholder {
			if sel.OffsetExpr, err = p.parsePlaceholder(); err != nil {
				return nil, err
			}
		} else {
			t := p.peek()
			if t.kind != tokNumber {
				return nil, p.errHere("expected an OFFSET count")
			}
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil || n < 0 {
				return nil, p.errHere("invalid OFFSET %q", t.text)
			}
			p.next()
			sel.Offset = n
		}
	}
	if p.acceptKw("AS") {
		if err := p.expectKw("OF"); err != nil {
			return nil, err
		}
		if err := p.expectKw("STALENESS"); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokString {
			return nil, p.errHere("expected a duration string after AS OF STALENESS")
		}
		d, err := time.ParseDuration(t.text)
		if err != nil || d <= 0 {
			return nil, p.errHere("invalid staleness %q", t.text)
		}
		p.next()
		sel.Staleness = d
	}
	return sel, nil
}

func (p *parser) parseJoinTail(sel *Select) error {
	ref, err := p.parseTableRef()
	if err != nil {
		return err
	}
	sel.Join = &ref
	if err := p.expectKw("ON"); err != nil {
		return err
	}
	if sel.On, err = p.parseExpr(); err != nil {
		return err
	}
	return nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name, Alias: name}
	// "AS alias" — but not "AS OF STALENESS", which belongs to the SELECT.
	if p.peekKw("AS") && p.peek2().kind == tokIdent {
		p.next()
		if ref.Alias, err = p.ident(); err != nil {
			return TableRef{}, err
		}
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// ---- UPDATE / DELETE ----

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	u := &Update{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		u.Set = append(u.Set, Assignment{Col: col, Expr: e})
		if p.acceptSym(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		if u.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return u, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: name}
	if p.acceptKw("WHERE") {
		if d.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// ---- SET / SHOW ----

func (p *parser) parseSet() (Statement, error) {
	p.next() // SET
	if p.acceptKw("JOIN") {
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind == tokIdent {
			if mode, ok := parseJoinStrategy(t.text); ok {
				p.next()
				return &SetJoin{Mode: mode.Keyword()}, nil
			}
		}
		return nil, p.errHere("expected AUTO, HASH, LOOKUP or NESTLOOP")
	}
	if err := p.expectKw("STALENESS"); err != nil {
		return nil, err
	}
	if err := p.expectSym("="); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, "any") {
		p.next()
		return &SetStaleness{Any: true}, nil
	}
	if t.kind == tokIdent && strings.EqualFold(t.text, "none") {
		p.next()
		return &SetStaleness{None: true}, nil
	}
	if t.kind != tokString {
		return nil, p.errHere("expected a duration string, ANY, or NONE")
	}
	d, err := time.ParseDuration(t.text)
	if err != nil || d <= 0 {
		return nil, p.errHere("invalid staleness %q", t.text)
	}
	p.next()
	return &SetStaleness{Bound: d}, nil
}

func (p *parser) parseShow() (Statement, error) {
	p.next() // SHOW
	switch {
	case p.acceptKw("TABLES"):
		return &Show{What: "TABLES"}, nil
	case p.acceptKw("MODE"):
		return &Show{What: "MODE"}, nil
	case p.acceptKw("REGIONS"):
		return &Show{What: "REGIONS"}, nil
	case p.acceptKw("STALENESS"):
		return &Show{What: "STALENESS"}, nil
	case p.acceptKw("JOIN"):
		return &Show{What: "JOIN"}, nil
	default:
		return nil, p.errHere("expected TABLES, MODE, REGIONS, STALENESS or JOIN")
	}
}

// ---- Expressions ----
//
// Precedence (low to high): OR, AND, NOT, comparison/IS/IN/BETWEEN/LIKE,
// + -, * / %, unary minus, primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("IS") {
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{X: left, Neg: neg}, nil
	}
	// [NOT] IN / BETWEEN / LIKE
	neg := false
	if p.peekKw("NOT") && (p.peek2().text == "IN" || p.peek2().text == "BETWEEN" || p.peek2().text == "LIKE") {
		p.next()
		neg = true
	}
	switch {
	case p.acceptKw("IN"):
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			e, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if p.acceptSym(",") {
				continue
			}
			break
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: left, List: list, Neg: neg}, nil
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: left, Lo: lo, Hi: hi, Neg: neg}, nil
	case p.acceptKw("LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var out Expr = &BinaryExpr{Op: "LIKE", Left: left, Right: right}
		if neg {
			out = &UnaryExpr{Op: "NOT", X: out}
		}
		return out, nil
	}
	for _, op := range []string{"=", "<>", "<=", ">=", "<", ">"} {
		if p.peekSym(op) {
			p.next()
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.peekSym("+"):
			op = "+"
		case p.peekSym("-"):
			op = "-"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.peekSym("*"):
			op = "*"
		case p.peekSym("/"):
			op = "/"
		case p.peekSym("%"):
			op = "%"
		default:
			return left, nil
		}
		p.next()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSym("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals.
		if lit, ok := x.(*Literal); ok {
			switch v := lit.Val.(type) {
			case int64:
				return &Literal{Val: -v}, nil
			case float64:
				return &Literal{Val: -v}, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if !strings.ContainsAny(t.text, ".eE") {
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err == nil {
				return &Literal{Val: n}, nil
			}
		}
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errAt(t.pos, p.src, "malformed number %q", t.text)
		}
		return &Literal{Val: f}, nil
	case tokString:
		p.next()
		return &Literal{Val: t.text}, nil
	case tokPlaceholder:
		return p.parsePlaceholder()
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: nil}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: false}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return p.parseFuncCall()
		}
		return nil, p.errHere("unexpected keyword in expression")
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "*" {
			p.next()
			return &Star{}, nil
		}
		return nil, p.errHere("unexpected symbol in expression")
	case tokIdent:
		// Function call, qualified column, or bare column.
		if p.peek2().kind == tokSymbol && p.peek2().text == "(" {
			return p.parseFuncCall()
		}
		p.next()
		if p.acceptSym(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColRef{Table: t.text, Name: col}, nil
		}
		return &ColRef{Name: t.text}, nil
	default:
		return nil, p.errHere("unexpected end of expression")
	}
}

// parsePlaceholder consumes a `?` or `$n` parameter token, enforcing a
// single placeholder style per statement.
func (p *parser) parsePlaceholder() (Expr, error) {
	t := p.next()
	if t.text == "" { // `?`: auto-numbered
		if p.dollarSeen {
			return nil, errAt(t.pos, p.src, "cannot mix '?' and '$n' placeholders in one statement")
		}
		p.qmarks++
		return &Placeholder{Idx: p.qmarks}, nil
	}
	if p.qmarks > 0 {
		return nil, errAt(t.pos, p.src, "cannot mix '?' and '$n' placeholders in one statement")
	}
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 1 {
		return nil, errAt(t.pos, p.src, "invalid parameter number $%s", t.text)
	}
	p.dollarSeen = true
	return &Placeholder{Idx: n}, nil
}

// scalarFuncs are the supported non-aggregate functions.
var scalarFuncs = map[string]bool{
	"ABS": true, "LOWER": true, "UPPER": true, "LENGTH": true, "COALESCE": true,
}

func (p *parser) parseFuncCall() (Expr, error) {
	t := p.next()
	name := strings.ToUpper(t.text)
	if !aggregateFuncs[name] && !scalarFuncs[name] {
		return nil, errAt(t.pos, p.src, "unknown function %q", t.text)
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	f := &FuncExpr{Name: name}
	if p.acceptKw("DISTINCT") {
		f.Distinct = true
	}
	if !p.peekSym(")") {
		for {
			if p.peekSym("*") {
				p.next()
				f.Args = append(f.Args, &Star{})
			} else {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				f.Args = append(f.Args, e)
			}
			if p.acceptSym(",") {
				continue
			}
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return f, nil
}
