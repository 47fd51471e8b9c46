package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/adm-project/adm/internal/storage"
)

// The SQL subset:
//
//	SELECT item [, item]* FROM t [alias] [JOIN t2 [alias] ON a.x = b.y]*
//	    [WHERE col op lit [AND ...]] [GROUP BY col] [ORDER BY col [DESC]]
//	    [LIMIT n]
//	item := * | col | COUNT(*) | COUNT|SUM|AVG|MIN|MAX '(' col ')'
//	INSERT INTO t VALUES (lit, ...) [, (lit, ...)]*
//	UPDATE t SET col = lit [, col = lit]* [WHERE ...]
//	DELETE FROM t [WHERE ...]
//	CREATE TABLE t (col TYPE [, col TYPE]*)
//	CREATE INDEX ON t (col)
//	ANALYZE t
//
// Identifiers and keywords are case-insensitive; strings are
// single-quoted with '' escaping.

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

// ColRef names a (possibly table-qualified) column.
type ColRef struct {
	Table string
	Col   string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// CmpOp is a comparison operator in WHERE/ON clauses.
type CmpOp int

// Comparison operators. OpIsNull/OpNotNull are the SQL null tests —
// unary, their Pred carries no meaningful literal and they never go
// through Eval.
const (
	OpEQ CmpOp = iota
	OpNE
	OpLT
	OpGT
	OpLE
	OpGE
	OpIsNull
	OpNotNull
)

func (o CmpOp) String() string {
	return [...]string{"=", "!=", "<", ">", "<=", ">=", "IS NULL", "IS NOT NULL"}[o]
}

// Eval applies a comparison operator to a Compare result. The null
// tests are not comparisons and always answer false here — callers
// dispatch them on the value's kind before comparing.
func (o CmpOp) Eval(cmp int) bool {
	switch o {
	case OpEQ:
		return cmp == 0
	case OpNE:
		return cmp != 0
	case OpLT:
		return cmp < 0
	case OpGT:
		return cmp > 0
	case OpLE:
		return cmp <= 0
	case OpGE:
		return cmp >= 0
	}
	return false
}

// Pred is one conjunct: col op literal, or a unary null test.
type Pred struct {
	Col ColRef
	Op  CmpOp
	Lit storage.Value
}

func (p Pred) String() string {
	if p.Op == OpIsNull || p.Op == OpNotNull {
		return fmt.Sprintf("%s %s", p.Col, p.Op)
	}
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Lit)
}

// AggFunc names an aggregate.
type AggFunc string

// Aggregate functions.
const (
	AggNone  AggFunc = ""
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// SelectItem is one output expression.
type SelectItem struct {
	Star bool
	Agg  AggFunc
	// AggStar marks COUNT(*).
	AggStar bool
	Col     ColRef
}

// TableRef is FROM/JOIN table with optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding name used in column resolution.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is one JOIN ... ON a.x = b.y.
type JoinClause struct {
	Table TableRef
	LCol  ColRef
	RCol  ColRef
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Items   []SelectItem
	From    TableRef
	Joins   []JoinClause
	Where   []Pred
	GroupBy *ColRef
	OrderBy *ColRef
	Desc    bool
	Limit   int // -1 = none
}

func (*SelectStmt) stmt() {}

// InsertStmt is a parsed INSERT.
type InsertStmt struct {
	Table string
	Rows  [][]storage.Value
}

func (*InsertStmt) stmt() {}

// UpdateStmt is a parsed UPDATE.
type UpdateStmt struct {
	Table string
	Set   map[string]storage.Value
	Where []Pred
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is a parsed DELETE.
type DeleteStmt struct {
	Table string
	Where []Pred
}

func (*DeleteStmt) stmt() {}

// CreateTableStmt is a parsed CREATE TABLE.
type CreateTableStmt struct {
	Name string
	Cols []Column
}

func (*CreateTableStmt) stmt() {}

// CreateIndexStmt is a parsed CREATE INDEX.
type CreateIndexStmt struct {
	Table string
	Col   string
}

func (*CreateIndexStmt) stmt() {}

// AnalyzeStmt is a parsed ANALYZE.
type AnalyzeStmt struct {
	Table string
}

func (*AnalyzeStmt) stmt() {}

// ExplainStmt wraps a SELECT whose plan (not results) is wanted.
type ExplainStmt struct {
	Select *SelectStmt
}

func (*ExplainStmt) stmt() {}

// BeginStmt is a parsed BEGIN: open an explicit transaction.
type BeginStmt struct{}

func (*BeginStmt) stmt() {}

// CommitStmt is a parsed COMMIT.
type CommitStmt struct{}

func (*CommitStmt) stmt() {}

// RollbackStmt is a parsed ROLLBACK.
type RollbackStmt struct{}

func (*RollbackStmt) stmt() {}

// ParseError reports a SQL syntax error.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("sql: at %d: %s", e.Pos, e.Msg) }

// ---------------------------------------------------------------------------
// Lexer.

type sqlTokKind int

const (
	sEOF sqlTokKind = iota
	sIdent
	sNumber
	sString
	sStar
	sComma
	sLParen
	sRParen
	sDot
	sEq
	sNe
	sLt
	sGt
	sLe
	sGe
	sSemi
)

type sqlTok struct {
	kind sqlTokKind
	text string
	pos  int
}

// sqlLex appends src's tokens to toks.
func sqlLex(src string, toks []sqlTok) ([]sqlTok, error) {
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '*':
			toks = append(toks, sqlTok{sStar, "*", i})
			i++
		case c == ',':
			toks = append(toks, sqlTok{sComma, ",", i})
			i++
		case c == '(':
			toks = append(toks, sqlTok{sLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, sqlTok{sRParen, ")", i})
			i++
		case c == '.':
			toks = append(toks, sqlTok{sDot, ".", i})
			i++
		case c == ';':
			toks = append(toks, sqlTok{sSemi, ";", i})
			i++
		case c == '=':
			toks = append(toks, sqlTok{sEq, "=", i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, sqlTok{sNe, "!=", i})
				i += 2
			} else {
				return nil, &ParseError{Pos: i, Msg: "unexpected '!'"}
			}
		case c == '<':
			switch {
			case i+1 < len(src) && src[i+1] == '=':
				toks = append(toks, sqlTok{sLe, "<=", i})
				i += 2
			case i+1 < len(src) && src[i+1] == '>':
				toks = append(toks, sqlTok{sNe, "<>", i})
				i += 2
			default:
				toks = append(toks, sqlTok{sLt, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, sqlTok{sGe, ">=", i})
				i += 2
			} else {
				toks = append(toks, sqlTok{sGt, ">", i})
				i++
			}
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(src) {
					return nil, &ParseError{Pos: i, Msg: "unterminated string"}
				}
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, sqlTok{sString, sb.String(), i})
			i = j + 1
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			j := i + 1
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, sqlTok{sNumber, src[i:j], i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, sqlTok{sIdent, src[i:j], i})
			i = j
		default:
			return nil, &ParseError{Pos: i, Msg: fmt.Sprintf("unexpected %q", c)}
		}
	}
	toks = append(toks, sqlTok{sEOF, "", len(src)})
	return toks, nil
}

// ---------------------------------------------------------------------------
// Parser.

type sqlParser struct {
	toks []sqlTok
	pos  int
}

func (p *sqlParser) peek() sqlTok { return p.toks[p.pos] }
func (p *sqlParser) next() sqlTok { t := p.toks[p.pos]; p.pos++; return t }

func (p *sqlParser) kw(word string) bool {
	t := p.peek()
	if t.kind == sIdent && strings.EqualFold(t.text, word) {
		p.pos++
		return true
	}
	return false
}

func (p *sqlParser) expectKw(word string) error {
	if !p.kw(word) {
		t := p.peek()
		return &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected %s, got %q", word, t.text)}
	}
	return nil
}

func (p *sqlParser) expect(k sqlTokKind, what string) (sqlTok, error) {
	t := p.peek()
	if t.kind != k {
		return sqlTok{}, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected %s, got %q", what, t.text)}
	}
	return p.next(), nil
}

func (p *sqlParser) ident(what string) (string, error) {
	t, err := p.expect(sIdent, what)
	if err != nil {
		return "", err
	}
	return t.text, nil
}

// Parse compiles one SQL statement.
func Parse(src string) (Stmt, error) {
	var buf [48]sqlTok // a typical statement's tokens: the parser keeps it on the stack
	toks, err := sqlLex(src, buf[:0])
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	var st Stmt
	switch {
	case p.kw("SELECT"):
		st, err = p.selectStmt()
	case p.kw("INSERT"):
		st, err = p.insertStmt()
	case p.kw("UPDATE"):
		st, err = p.updateStmt()
	case p.kw("DELETE"):
		st, err = p.deleteStmt()
	case p.kw("CREATE"):
		st, err = p.createStmt()
	case p.kw("ANALYZE"):
		tbl, e := p.ident("table name")
		st, err = &AnalyzeStmt{Table: tbl}, e
	case p.kw("EXPLAIN"):
		if err := p.expectKw("SELECT"); err != nil {
			return nil, err
		}
		var sel *SelectStmt
		sel, err = p.selectStmt()
		st = &ExplainStmt{Select: sel}
	case p.kw("BEGIN"):
		st = &BeginStmt{}
	case p.kw("COMMIT"):
		st = &CommitStmt{}
	case p.kw("ROLLBACK"):
		st = &RollbackStmt{}
	default:
		t := p.peek()
		return nil, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("unknown statement %q", t.text)}
	}
	if err != nil {
		return nil, err
	}
	if p.peek().kind == sSemi {
		p.next()
	}
	if p.peek().kind != sEOF {
		t := p.peek()
		return nil, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("trailing input %q", t.text)}
	}
	return st, nil
}

// MustParse panics on error (fixtures/tests).
func MustParse(src string) Stmt {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

var aggNames = map[string]AggFunc{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

var reservedAfterItem = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "ORDER": true, "LIMIT": true,
	"JOIN": true, "ON": true, "AND": true, "BY": true, "DESC": true, "ASC": true,
	"SET": true, "VALUES": true, "INTO": true,
}

func (p *sqlParser) colRef() (ColRef, error) {
	first, err := p.ident("column name")
	if err != nil {
		return ColRef{}, err
	}
	if p.peek().kind == sDot {
		p.next()
		col, err := p.ident("column name")
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Col: col}, nil
	}
	return ColRef{Col: first}, nil
}

func (p *sqlParser) selectStmt() (*SelectStmt, error) {
	st := &SelectStmt{Limit: -1}
	n := 1 // select items: one more than the commas before FROM
	for _, t := range p.toks[p.pos:] {
		if t.kind == sComma {
			n++
		} else if t.kind == sEOF || t.kind == sIdent && strings.EqualFold(t.text, "FROM") {
			break
		}
	}
	st.Items = make([]SelectItem, 0, n)
	for {
		item, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if p.peek().kind == sComma {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	from, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	st.From = from
	for p.kw("JOIN") {
		jt, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		l, err := p.colRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sEq, "'='"); err != nil {
			return nil, err
		}
		r, err := p.colRef()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Table: jt, LCol: l, RCol: r})
	}
	if p.kw("WHERE") {
		preds, err := p.predList()
		if err != nil {
			return nil, err
		}
		st.Where = preds
	}
	if p.kw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		st.GroupBy = &c
	}
	if p.kw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		st.OrderBy = &c
		if p.kw("DESC") {
			st.Desc = true
		} else {
			p.kw("ASC")
		}
	}
	if p.kw("LIMIT") {
		n, err := p.expect(sNumber, "limit count")
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(n.text)
		if err != nil || v < 0 {
			return nil, &ParseError{Pos: n.pos, Msg: "bad LIMIT"}
		}
		st.Limit = v
	}
	return st, nil
}

func (p *sqlParser) selectItem() (SelectItem, error) {
	if p.peek().kind == sStar {
		p.next()
		return SelectItem{Star: true}, nil
	}
	t := p.peek()
	if t.kind == sIdent && p.toks[p.pos+1].kind == sLParen { // only a call can be an aggregate
		if agg, ok := aggNames[strings.ToUpper(t.text)]; ok {
			p.next() // agg name
			p.next() // (
			if p.peek().kind == sStar {
				if agg != AggCount {
					return SelectItem{}, &ParseError{Pos: t.pos, Msg: "only COUNT(*) allowed"}
				}
				p.next()
				if _, err := p.expect(sRParen, "')'"); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Agg: agg, AggStar: true}, nil
			}
			c, err := p.colRef()
			if err != nil {
				return SelectItem{}, err
			}
			if _, err := p.expect(sRParen, "')'"); err != nil {
				return SelectItem{}, err
			}
			return SelectItem{Agg: agg, Col: c}, nil
		}
	}
	c, err := p.colRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: c}, nil
}

func (p *sqlParser) tableRef() (TableRef, error) {
	name, err := p.ident("table name")
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if t := p.peek(); t.kind == sIdent && !reservedAfterItem[strings.ToUpper(t.text)] {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *sqlParser) predList() ([]Pred, error) {
	var out []Pred
	for {
		pr, err := p.pred()
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
		if p.kw("AND") {
			continue
		}
		return out, nil
	}
}

func (p *sqlParser) pred() (Pred, error) {
	c, err := p.colRef()
	if err != nil {
		return Pred{}, err
	}
	if p.kw("IS") {
		op := OpIsNull
		if p.kw("NOT") {
			op = OpNotNull
		}
		if err := p.expectKw("NULL"); err != nil {
			return Pred{}, err
		}
		return Pred{Col: c, Op: op, Lit: storage.NullValue()}, nil
	}
	op, err := p.cmpOp()
	if err != nil {
		return Pred{}, err
	}
	lit, err := p.literal()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Col: c, Op: op, Lit: lit}, nil
}

func (p *sqlParser) cmpOp() (CmpOp, error) {
	t := p.next()
	switch t.kind {
	case sEq:
		return OpEQ, nil
	case sNe:
		return OpNE, nil
	case sLt:
		return OpLT, nil
	case sGt:
		return OpGT, nil
	case sLe:
		return OpLE, nil
	case sGe:
		return OpGE, nil
	}
	return 0, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected comparison, got %q", t.text)}
}

func (p *sqlParser) literal() (storage.Value, error) {
	t := p.next()
	switch t.kind {
	case sNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return storage.Value{}, &ParseError{Pos: t.pos, Msg: "bad float"}
			}
			return storage.FloatValue(f), nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return storage.Value{}, &ParseError{Pos: t.pos, Msg: "bad int"}
		}
		return storage.IntValue(v), nil
	case sString:
		return storage.StringValue(t.text), nil
	case sIdent:
		switch strings.ToUpper(t.text) {
		case "TRUE":
			return storage.BoolValue(true), nil
		case "FALSE":
			return storage.BoolValue(false), nil
		case "NULL":
			return storage.NullValue(), nil
		}
	}
	return storage.Value{}, &ParseError{Pos: t.pos, Msg: fmt.Sprintf("expected literal, got %q", t.text)}
}

func (p *sqlParser) insertStmt() (*InsertStmt, error) {
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	for {
		if _, err := p.expect(sLParen, "'('"); err != nil {
			return nil, err
		}
		var row []storage.Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if p.peek().kind == sComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(sRParen, "')'"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.peek().kind == sComma {
			p.next()
			continue
		}
		break
	}
	return st, nil
}

func (p *sqlParser) updateStmt() (*UpdateStmt, error) {
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table, Set: map[string]storage.Value{}}
	for {
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sEq, "'='"); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Set[strings.ToLower(col)] = v
		if p.peek().kind == sComma {
			p.next()
			continue
		}
		break
	}
	if p.kw("WHERE") {
		preds, err := p.predList()
		if err != nil {
			return nil, err
		}
		st.Where = preds
	}
	return st, nil
}

func (p *sqlParser) deleteStmt() (*DeleteStmt, error) {
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident("table name")
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.kw("WHERE") {
		preds, err := p.predList()
		if err != nil {
			return nil, err
		}
		st.Where = preds
	}
	return st, nil
}

var typeNames = map[string]ColumnType{
	"INT": TInt, "INTEGER": TInt, "FLOAT": TFloat, "REAL": TFloat,
	"STRING": TString, "TEXT": TString, "VARCHAR": TString, "BOOL": TBool,
}

func (p *sqlParser) createStmt() (Stmt, error) {
	switch {
	case p.kw("TABLE"):
		name, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sLParen, "'('"); err != nil {
			return nil, err
		}
		st := &CreateTableStmt{Name: name}
		for {
			col, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			tn, err := p.ident("type name")
			if err != nil {
				return nil, err
			}
			ct, ok := typeNames[strings.ToUpper(tn)]
			if !ok {
				return nil, &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf("unknown type %q", tn)}
			}
			st.Cols = append(st.Cols, Column{Name: col, Type: ct})
			if p.peek().kind == sComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(sRParen, "')'"); err != nil {
			return nil, err
		}
		return st, nil
	case p.kw("INDEX"):
		if err := p.expectKw("ON"); err != nil {
			return nil, err
		}
		table, err := p.ident("table name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sLParen, "'('"); err != nil {
			return nil, err
		}
		col, err := p.ident("column name")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(sRParen, "')'"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Table: table, Col: col}, nil
	}
	t := p.peek()
	return nil, &ParseError{Pos: t.pos, Msg: "expected TABLE or INDEX"}
}
