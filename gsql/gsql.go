package gsql

import (
	"context"
	"encoding/hex"
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/obs"
	"globaldb/internal/table"
)

// Result is the outcome of one statement.
type Result struct {
	// Columns names the output columns (empty for statements without rows).
	Columns []string
	// Rows holds the output tuples.
	Rows [][]any
	// Affected counts rows written by INSERT/UPDATE/DELETE.
	Affected int
	// Msg is a human-readable summary for non-query statements.
	Msg string
	// OnReplicas reports whether a SELECT was served from asynchronous
	// replicas at the RCP (read-on-replica) rather than shard primaries.
	OnReplicas bool
	// Scan reports the per-layer scan row counts of a SELECT, or of an
	// UPDATE/DELETE row search: rows read from storage by data nodes, rows
	// dropped DN-side (pushed filters and partial aggregation), and rows
	// shipped over the WAN — the pushdown win, observable per statement.
	Scan globaldb.ScanStats
	// Trace is the rendered span tree of this statement's execution, set
	// when session tracing is on (SetTrace / the shell's \trace toggle).
	// Local to the session: it does not cross the wire protocol.
	Trace []string
	// JoinStrategy names the physical join strategy a two-table SELECT
	// executed with ("lookup-pushdown", "hash", "nested-loop"); empty for
	// single-table queries.
	JoinStrategy string
}

// stalenessMode selects where out-of-transaction SELECTs read.
type stalenessMode uint8

const (
	// readPrimary reads shard primaries (fresh; the default).
	readPrimary stalenessMode = iota
	// readReplicaAny reads replicas with no freshness bound.
	readReplicaAny
	// readReplicaBound reads replicas with a staleness bound.
	readReplicaBound
)

// Session is a SQL connection to one computing node. It is not safe for
// concurrent use (like a database connection).
type Session struct {
	db   *globaldb.DB
	sess *globaldb.Session
	tx   *globaldb.Tx // open explicit transaction, if any

	mode      stalenessMode
	staleness time.Duration

	// pushdownOff forces CN-side evaluation of filters and aggregates
	// (differential testing and apples-to-apples measurement); pushdown is
	// on by default.
	pushdownOff bool

	// joinMode is the session's SET JOIN strategy: AUTO (default) lets the
	// planner pick from availability and row estimates; HASH/LOOKUP/
	// NESTLOOP request one strategy, falling back to nested-loop when the
	// requested one does not apply to a query.
	joinMode joinStrategy

	// trace, when set, traces every statement and attaches the rendered
	// span tree to its Result. curTrace is the statement currently being
	// traced (also set by EXPLAIN ANALYZE independently of trace).
	trace    bool
	curTrace *obs.Trace

	plans *planCache // statement text -> parsed statement + plan
}

// SetTrace toggles per-statement span tracing for the session. While on,
// every statement's Result carries the rendered span tree in Trace —
// parse-free (statements arrive parsed), but covering plan, bind, execute,
// the per-shard scan-page RPCs with DN execute time, and commit fan-out.
func (s *Session) SetTrace(on bool) { s.trace = on }

// TraceEnabled reports whether SetTrace tracing is on.
func (s *Session) TraceEnabled() bool { return s.trace }

// Connect opens a SQL session homed at the named region's computing node.
// Out-of-transaction SELECTs read shard primaries until SET STALENESS (or a
// per-statement AS OF STALENESS) routes them to asynchronous replicas.
func Connect(db *globaldb.DB, region string) (*Session, error) {
	sess, err := db.Connect(region)
	if err != nil {
		return nil, err
	}
	return &Session{db: db, sess: sess, plans: newPlanCache(defaultPlanCacheCap)}, nil
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Staleness describes the session's replica-read setting: "NONE" (primary
// reads), "ANY", or a duration string.
func (s *Session) Staleness() string {
	switch s.mode {
	case readReplicaAny:
		return "ANY"
	case readReplicaBound:
		return s.staleness.String()
	default:
		return "NONE"
	}
}

// Schema implements the planner's catalog over the cluster catalog.
func (s *Session) Schema(name string) (*table.Schema, error) { return s.db.Schema(name) }

// SetPushdown enables or disables DN-side execution (filter, projection
// and partial-aggregate pushdown) for this session's queries. On by
// default; disabling moves all evaluation back to the computing node
// without changing any result — the differential tests rely on exactly
// that equivalence.
func (s *Session) SetPushdown(on bool) { s.pushdownOff = !on }

// Exec runs one SQL statement with the given parameter values bound to its
// `?`/`$n` placeholders. Parsed statements and their plans are cached per
// session, keyed by the SQL text and invalidated when the catalog's DDL
// version changes, so repeating a statement skips the parser and planner.
func (s *Session) Exec(ctx context.Context, sql string, args ...any) (*Result, error) {
	cs, err := s.cachedStatement(sql)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(cs.numParams, args)
	if err != nil {
		return nil, err
	}
	return s.dispatch(ctx, cs.stmt, cs.plan, params)
}

// ExecScript runs a semicolon-separated script, returning the last
// statement's result. It stops at the first error.
func (s *Session) ExecScript(ctx context.Context, sql string) (*Result, error) {
	stmts, err := ParseAll(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) == 0 {
		return &Result{Msg: "empty script"}, nil
	}
	var last *Result
	for _, stmt := range stmts {
		last, err = s.ExecStmt(ctx, stmt)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecStmt runs one parsed statement with the given parameter values. It
// plans SELECTs and UPDATE/DELETE row searches afresh on every call; Exec
// and Prepare are the cached entry points.
func (s *Session) ExecStmt(ctx context.Context, stmt Statement, args ...any) (*Result, error) {
	params, err := bindArgs(CountParams(stmt), args)
	if err != nil {
		return nil, err
	}
	return s.dispatch(ctx, stmt, nil, params)
}

// dispatch runs one statement. plan, when non-nil, is the cached plan of a
// SELECT, or of an UPDATE/DELETE row search; a nil plan makes those plan on
// the spot. With session tracing on it brackets the statement in a fresh
// trace and attaches the rendered span tree to the result.
func (s *Session) dispatch(ctx context.Context, stmt Statement, plan *selectPlan, params []any) (*Result, error) {
	if !s.trace || s.curTrace != nil {
		return s.dispatchStmt(ctx, stmt, plan, params)
	}
	tr := obs.NewTrace(traceName(stmt))
	s.curTrace = tr
	// The root span rides the context so statements without their own span
	// plumbing (writes, DDL) still attach commit/2PC fan-out spans.
	res, err := s.dispatchStmt(obs.WithSpan(ctx, tr.Root()), stmt, plan, params)
	s.curTrace = nil
	tr.Root().End()
	if err == nil && res != nil {
		res.Trace = tr.Render()
	}
	return res, err
}

// traceName labels a trace root by its statement kind.
func traceName(stmt Statement) string {
	text := stmt.String()
	if i := strings.IndexByte(text, ' '); i > 0 {
		text = text[:i]
	}
	return strings.ToLower(text)
}

func (s *Session) dispatchStmt(ctx context.Context, stmt Statement, plan *selectPlan, params []any) (*Result, error) {
	switch st := stmt.(type) {
	case *Select:
		return s.execSelect(ctx, st, plan, params)
	case *Insert:
		return s.execInsert(ctx, st, params)
	case *Update:
		return s.execUpdate(ctx, st, plan, params)
	case *Delete:
		return s.execDelete(ctx, st, plan, params)
	case *CreateTable:
		return s.execCreateTable(ctx, st)
	case *DropTable:
		return s.execDropTable(ctx, st)
	case *Begin:
		if s.tx != nil {
			return nil, fmt.Errorf("gsql: transaction already open")
		}
		tx, err := s.sess.Begin(ctx)
		if err != nil {
			return nil, err
		}
		s.tx = tx
		return &Result{Msg: "BEGIN"}, nil
	case *Commit:
		if s.tx == nil {
			return nil, fmt.Errorf("gsql: no open transaction")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Commit(ctx); err != nil {
			return nil, err
		}
		return &Result{Msg: "COMMIT"}, nil
	case *Rollback:
		if s.tx == nil {
			return nil, fmt.Errorf("gsql: no open transaction")
		}
		tx := s.tx
		s.tx = nil
		if err := tx.Abort(ctx); err != nil {
			return nil, err
		}
		return &Result{Msg: "ROLLBACK"}, nil
	case *SetStaleness:
		switch {
		case st.None:
			s.mode = readPrimary
			s.staleness = 0
		case st.Any:
			s.mode = readReplicaAny
			s.staleness = 0
		default:
			s.mode = readReplicaBound
			s.staleness = st.Bound
		}
		return &Result{Msg: st.String()}, nil
	case *SetJoin:
		mode, ok := parseJoinStrategy(st.Mode)
		if !ok {
			return nil, fmt.Errorf("gsql: unknown join strategy %q", st.Mode)
		}
		s.joinMode = mode
		return &Result{Msg: st.String()}, nil
	case *Show:
		return s.execShow(st)
	case *Explain:
		return s.execExplain(ctx, st, params)
	default:
		return nil, fmt.Errorf("gsql: unhandled statement %T", stmt)
	}
}

func (s *Session) execExplain(ctx context.Context, e *Explain, params []any) (*Result, error) {
	sel := e.Stmt.(*Select)
	p, err := planSelect(s, sel)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range p.describe() {
		res.Rows = append(res.Rows, []any{line})
	}
	if !e.Analyze {
		return res, nil
	}
	// ANALYZE: actually execute the query under a trace, then append the
	// span tree and the per-layer counters below the plan. The rows the
	// query produced are discarded — the plan column is the output.
	tr := obs.NewTrace("execute")
	prev := s.curTrace
	s.curTrace = tr
	run, err := s.execSelect(ctx, sel, p, params)
	s.curTrace = prev
	if err != nil {
		return nil, err
	}
	tr.Root().End()
	res.Rows = append(res.Rows, []any{""})
	for _, line := range tr.Render() {
		res.Rows = append(res.Rows, []any{line})
	}
	for _, line := range scanSummary(run.Scan, tr.Root().Duration()) {
		res.Rows = append(res.Rows, []any{line})
	}
	if run.JoinStrategy != "" {
		res.Rows = append(res.Rows, []any{"join strategy: " + run.JoinStrategy})
	}
	res.OnReplicas = run.OnReplicas
	res.Scan = run.Scan
	res.JoinStrategy = run.JoinStrategy
	return res, nil
}

// scanSummary renders a query's scan counters plus the prefetch-wait vs
// consume-time attribution against the measured wall time.
func scanSummary(sc globaldb.ScanStats, wall time.Duration) []string {
	if sc.StorageRows == 0 && sc.PagesFetched == 0 {
		return nil
	}
	lines := []string{fmt.Sprintf("scan: storage=%d rows, filtered at DN=%d, shipped over WAN=%d",
		sc.StorageRows, sc.DNFilteredRows, sc.WANRows)}
	if sc.LookupRows > 0 {
		lines = append(lines, fmt.Sprintf(
			"join: pushed lookups read %d inner rows on data nodes (outer storage=%d rows)",
			sc.LookupRows, sc.StorageRows-sc.LookupRows))
	}
	waitPct := 0.0
	if wall > 0 {
		waitPct = 100 * float64(sc.WANWait) / float64(wall)
		if waitPct > 100 {
			waitPct = 100
		}
	}
	lines = append(lines, fmt.Sprintf(
		"wan: pages=%d, prefetch-hits=%d, wait=%v (%.0f%% of wall; rest overlapped with consumption)",
		sc.PagesFetched, sc.PrefetchHits, sc.WANWait.Round(time.Microsecond), waitPct))
	return lines
}

func (s *Session) execShow(st *Show) (*Result, error) {
	switch st.What {
	case "TABLES":
		res := &Result{Columns: []string{"table"}}
		for _, name := range s.db.Tables() {
			res.Rows = append(res.Rows, []any{name})
		}
		return res, nil
	case "MODE":
		return &Result{Columns: []string{"mode"}, Rows: [][]any{{s.db.Mode().String()}}}, nil
	case "REGIONS":
		res := &Result{Columns: []string{"region"}}
		for _, r := range s.db.Regions() {
			res.Rows = append(res.Rows, []any{r})
		}
		return res, nil
	case "STALENESS":
		return &Result{Columns: []string{"staleness"}, Rows: [][]any{{s.Staleness()}}}, nil
	case "JOIN":
		return &Result{Columns: []string{"join"}, Rows: [][]any{{s.joinMode.Keyword()}}}, nil
	default:
		return nil, fmt.Errorf("gsql: unknown SHOW %q", st.What)
	}
}

// execSelect runs a SELECT for Exec: the Rows Query would stream, drained
// into a Result. Inside an explicit transaction the query reads from shard
// primaries at the transaction snapshot (and sees its own writes). Outside
// a transaction it reads primaries at a fresh snapshot by default; SET
// STALENESS or a per-statement AS OF STALENESS routes it to asynchronous
// replicas at the RCP (read-on-replica).
func (s *Session) execSelect(ctx context.Context, sel *Select, plan *selectPlan, params []any) (*Result, error) {
	rows, err := s.queryRows(ctx, sel, plan, params)
	if err != nil {
		return nil, err
	}
	return rows.result()
}

// bindForExec plans stmt's planTarget unless a cached plan is supplied,
// binds params and copies the session's execution settings (SET PUSHDOWN,
// SET JOIN, the catalog's row estimates) into the bound plan. Every
// statement that reads rows goes through it — queryRows, behind Exec,
// Session.Query, the wire server and the database/sql driver, and the
// UPDATE/DELETE row search — so a setting cannot reach one and miss another.
func (s *Session) bindForExec(stmt Statement, plan *selectPlan, params []any) (*boundPlan, error) {
	root := s.curTrace.Root() // nil outside a traced Exec: the spans are no-ops
	planSp := root.Child("plan")
	if plan == nil {
		var err error
		if plan, err = planSelect(s, planTarget(stmt)); err != nil {
			return nil, err
		}
	} else {
		planSp.Tag("cached")
	}
	planSp.End()
	bindSp := root.Child("bind")
	bp, err := plan.bind(params)
	bindSp.End()
	if err != nil {
		return nil, err
	}
	bp.noPushdown = s.pushdownOff
	bp.joinMode = s.joinMode
	bp.rowEst = s.db
	return bp, nil
}

// readKind names the context a SELECT read through; the traced execute span
// is tagged with it.
type readKind uint8

const (
	// readTxn is the session's open transaction.
	readTxn readKind = iota
	// readAutocommit is an autocommit Begin transaction on shard primaries,
	// which is what ReadOnce opens in the centralized modes too.
	readAutocommit
	// readOneRead is an autocommit one-read context (globaldb.Tx.OneRead):
	// under GClock, for a plan that reads once, a transaction on a shard
	// primary whose write is checked against the version it read.
	readOneRead
	// readReplica is a read-only query under a staleness setting: replicas
	// at the RCP, or primaries when the bound or the DDL gate rules them out.
	readReplica
)

func (k readKind) String() string {
	return [...]string{"txn", "autocommit", "one-read", "replica"}[k]
}

// readContext is where a SELECT reads. tx is the statement's own autocommit
// transaction, which Rows.Close commits or aborts; nil when the SELECT reads
// in the session's transaction or in a read-only query.
type readContext struct {
	r          reader
	kind       readKind
	onReplicas bool
	tx         *globaldb.Tx
}

// openReadContext picks where a SELECT reads: the session's open
// transaction; an autocommit transaction on shard primaries for a fresh read
// (beginAutocommit: a one-read context when the plan reads once); or a
// replica query under the session/statement staleness setting. Every SELECT,
// through Exec or Query, dispatches through here.
//
// The autocommit transaction ends when the Rows closes, a one-read context
// before the Rows is returned (queryRows). Its Commit returns only once the
// clock has passed the commit of the version its one Get returned, which is
// rarely a wait at all.
func (s *Session) openReadContext(ctx context.Context, sel *Select, bp *boundPlan) (readContext, error) {
	switch {
	case s.tx != nil:
		// The explicit transaction's lifecycle belongs to COMMIT/ROLLBACK.
		return readContext{r: s.tx, kind: readTxn}, nil
	case sel.Staleness == 0 && s.mode == readPrimary:
		tx, err := s.beginAutocommit(ctx, bp)
		if err != nil {
			return readContext{}, err
		}
		kind := readAutocommit
		if tx.OneRead() {
			kind = readOneRead
		}
		return readContext{r: tx, kind: kind, tx: tx}, nil
	default:
		bound := globaldb.AnyStaleness
		switch {
		case sel.Staleness > 0:
			bound = sel.Staleness
		case s.mode == readReplicaBound:
			bound = s.staleness
		}
		tables := []string{sel.From.Table}
		if sel.Join != nil {
			tables = append(tables, sel.Join.Table)
		}
		q, err := s.sess.ReadOnly(ctx, bound, tables...)
		if err != nil {
			return readContext{}, err
		}
		return readContext{r: q, kind: readReplica, onReplicas: q.OnReplicas()}, nil
	}
}

// beginAutocommit starts the transaction an autocommit statement runs in.
// search is the statement's row search: a SELECT's plan, an UPDATE's or a
// DELETE's WHERE, nil for an INSERT. When it reads once
// (selectPlan.readsOnce), a single-table point get whose one Get is the whole
// of its storage access, the transaction is a one-read context
// (globaldb.Session.ReadOnce): a second read refused, and a write the
// primary refuses unless the row is still at the version the search read. Any other search gets an ordinary Begin, and so
// does every search in the centralized modes (globaldb.Tx.OneRead tells).
func (s *Session) beginAutocommit(ctx context.Context, search *boundPlan) (*globaldb.Tx, error) {
	if search != nil && search.readsOnce() {
		return s.sess.ReadOnce(ctx)
	}
	return s.sess.Begin(ctx)
}

// withWriteTxn runs fn inside the session transaction, or else in an
// autocommit transaction (beginAutocommit) that it commits. search is the
// statement's row search, nil for an INSERT.
func (s *Session) withWriteTxn(ctx context.Context, search *boundPlan, fn func(tx *globaldb.Tx) (int, error)) (int, error) {
	if s.tx != nil {
		return fn(s.tx)
	}
	tx, err := s.beginAutocommit(ctx, search)
	if err != nil {
		return 0, err
	}
	n, err := fn(tx)
	if err != nil {
		_ = tx.Abort(ctx)
		return 0, err
	}
	if err := tx.Commit(ctx); err != nil {
		return 0, err
	}
	return n, nil
}

func (s *Session) execInsert(ctx context.Context, ins *Insert, params []any) (*Result, error) {
	sch, err := s.db.Schema(ins.Table)
	if err != nil {
		return nil, err
	}
	// Map the column list (or schema order) to positions.
	positions := make([]int, 0, len(sch.Columns))
	if len(ins.Cols) == 0 {
		for i := range sch.Columns {
			positions = append(positions, i)
		}
	} else {
		for _, name := range ins.Cols {
			ci := sch.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("gsql: table %s has no column %q", ins.Table, name)
			}
			positions = append(positions, ci)
		}
	}
	var rows []globaldb.Row
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("gsql: INSERT has %d values for %d columns", len(exprRow), len(positions))
		}
		row := make(globaldb.Row, len(sch.Columns))
		for i, e := range exprRow {
			v, err := evalConst(e, params) // constants and parameters only: no columns in scope
			if err != nil {
				return nil, err
			}
			cv, err := coerceValue(sch, positions[i], v)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = cv
		}
		rows = append(rows, row)
	}
	n, err := s.withWriteTxn(ctx, nil, func(tx *globaldb.Tx) (int, error) {
		for _, row := range rows {
			if err := tx.Insert(ctx, ins.Table, row); err != nil {
				return 0, err
			}
		}
		return len(rows), nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Msg: fmt.Sprintf("INSERT %d", n)}, nil
}

// planTarget returns the SELECT a statement reads its rows with: a SELECT
// itself, or for an UPDATE/DELETE its row search, the single-table
// SELECT * of its WHERE. nil for statements that read no rows.
func planTarget(stmt Statement) *Select {
	switch st := stmt.(type) {
	case *Select:
		return st
	case *Update:
		return rowSearch(st.Table, st.Where)
	case *Delete:
		return rowSearch(st.Table, st.Where)
	}
	return nil
}

// rowSearch builds an UPDATE/DELETE row search. SELECT * keeps the rows
// full width: a plan that needs every column never projects.
func rowSearch(tableName string, where Expr) *Select {
	return &Select{
		Items: []SelectItem{{Expr: &Star{}}},
		From:  TableRef{Table: tableName, Alias: tableName},
		Where: where,
		Limit: -1,
	}
}

// matchingRows runs an UPDATE/DELETE row search by draining the SELECT
// pipeline over the transaction, so the search gets the pushed range, the
// DN-side filter and the prefetch a SELECT gets. It returns the matching
// full-width rows and what the search read. The scans flush the
// transaction's buffered writes before the first page, so the search sees
// them; the pipeline is closed, joining its prefetch goroutines, before
// matchingRows returns, so the caller's writes start after the last read.
func matchingRows(ctx context.Context, tx *globaldb.Tx, p *boundPlan) ([]table.Row, globaldb.ScanStats, error) {
	it, totals, err := buildPipeline(ctx, tx, p)
	if err != nil {
		return nil, globaldb.ScanStats{}, err
	}
	var rows []table.Row
	for {
		var blk *rowBlock
		if blk, err = it.NextBlock(ctx); blk == nil || err != nil {
			break
		}
		rows = append(rows, blk.tabs[0]...)
	}
	it.Close()
	return rows, totals.s, err
}

func (s *Session) execUpdate(ctx context.Context, u *Update, plan *selectPlan, params []any) (*Result, error) {
	p, err := s.bindForExec(u, plan, params)
	if err != nil {
		return nil, err
	}
	sch := p.outer.tab.schema
	// Reject PK and indexed-column updates (index entries are rewritten in
	// place, not migrated — the same restriction GaussDB's distribution
	// keys have).
	frozen := map[int]bool{}
	for _, c := range sch.PK {
		frozen[c] = true
	}
	for _, ix := range sch.Indexes {
		for _, c := range ix.Cols {
			frozen[c] = true
		}
	}
	// SET values are lowered over the old row and bound once.
	row := &layout{tables: p.tables, scope: 1}
	cols := make([]int, len(u.Set))
	vals := make([]fragment.Expr, len(u.Set))
	for i, a := range u.Set {
		ci := sch.ColIndex(a.Col)
		if ci < 0 {
			return nil, fmt.Errorf("gsql: table %s has no column %q", u.Table, a.Col)
		}
		if frozen[ci] {
			return nil, fmt.Errorf("gsql: cannot update primary-key or indexed column %q", a.Col)
		}
		cols[i] = ci
		if vals[i], err = lowerExpr(a.Expr, row); err != nil {
			return nil, err
		}
	}
	if vals, err = fragment.BindExprs(vals, params); err != nil {
		return nil, err
	}
	var scan globaldb.ScanStats
	n, err := s.withWriteTxn(ctx, p, func(tx *globaldb.Tx) (int, error) {
		rows, st, err := matchingRows(ctx, tx, p)
		if scan = st; err != nil {
			return 0, err
		}
		for _, row := range rows {
			updated := append(globaldb.Row(nil), row...)
			for i, ci := range cols {
				v, err := fragment.Eval(&vals[i], row)
				if err != nil {
					return 0, err
				}
				if updated[ci], err = coerceValue(sch, ci, v); err != nil {
					return 0, err
				}
			}
			if err := tx.Update(ctx, u.Table, updated); err != nil {
				return 0, err
			}
		}
		return len(rows), nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Msg: fmt.Sprintf("UPDATE %d", n), Scan: scan}, nil
}

func (s *Session) execDelete(ctx context.Context, d *Delete, plan *selectPlan, params []any) (*Result, error) {
	p, err := s.bindForExec(d, plan, params)
	if err != nil {
		return nil, err
	}
	var scan globaldb.ScanStats
	n, err := s.withWriteTxn(ctx, p, func(tx *globaldb.Tx) (int, error) {
		rows, st, err := matchingRows(ctx, tx, p)
		if scan = st; err != nil {
			return 0, err
		}
		for _, row := range rows {
			if err := tx.DeleteRow(ctx, d.Table, row); err != nil {
				return 0, err
			}
		}
		return len(rows), nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Affected: n, Msg: fmt.Sprintf("DELETE %d", n), Scan: scan}, nil
}

// sqlKinds maps normalized SQL type names to column kinds.
var sqlKinds = map[string]table.Kind{
	"BIGINT": table.Int64,
	"DOUBLE": table.Float64,
	"TEXT":   table.String,
	"BYTES":  table.Bytes,
	"BOOL":   table.Bool,
}

func (s *Session) execCreateTable(ctx context.Context, ct *CreateTable) (*Result, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("gsql: DDL is not allowed inside a transaction")
	}
	sch := &table.Schema{Name: ct.Name}
	for _, col := range ct.Columns {
		kind, ok := sqlKinds[col.Type]
		if !ok {
			return nil, fmt.Errorf("gsql: unsupported type %q", col.Type)
		}
		sch.Columns = append(sch.Columns, table.Column{Name: col.Name, Kind: kind})
	}
	for _, pk := range ct.PK {
		ci := sch.ColIndex(pk)
		if ci < 0 {
			return nil, fmt.Errorf("gsql: PRIMARY KEY column %q does not exist", pk)
		}
		sch.PK = append(sch.PK, ci)
	}
	if ct.ShardBy != "" {
		ci := sch.ColIndex(ct.ShardBy)
		if ci < 0 {
			return nil, fmt.Errorf("gsql: SHARD BY column %q does not exist", ct.ShardBy)
		}
		inPK := false
		for _, p := range sch.PK {
			if p == ci {
				inPK = true
			}
		}
		if !inPK {
			return nil, fmt.Errorf("gsql: SHARD BY column %q must be part of the primary key", ct.ShardBy)
		}
		sch.ShardBy = ci
	} else {
		sch.ShardBy = sch.PK[0]
	}
	for _, ixd := range ct.Indexes {
		ix := table.Index{Name: ixd.Name}
		for _, col := range ixd.Cols {
			ci := sch.ColIndex(col)
			if ci < 0 {
				return nil, fmt.Errorf("gsql: INDEX %s column %q does not exist", ixd.Name, col)
			}
			ix.Cols = append(ix.Cols, ci)
		}
		sch.Indexes = append(sch.Indexes, ix)
	}
	sch.SyncReplicated = ct.Sync
	if err := s.db.CreateTable(ctx, sch); err != nil {
		return nil, err
	}
	return &Result{Msg: "CREATE TABLE " + ct.Name}, nil
}

func (s *Session) execDropTable(ctx context.Context, dt *DropTable) (*Result, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("gsql: DDL is not allowed inside a transaction")
	}
	if err := s.db.DropTable(ctx, dt.Name); err != nil {
		return nil, err
	}
	return &Result{Msg: "DROP TABLE " + dt.Name}, nil
}

// FormatTable renders a result as an aligned text table for CLIs. Cells are
// padded by rune count, and BYTES values print as \x and lowercase hex, as
// PostgreSQL prints bytea.
func FormatTable(res *Result) string {
	if len(res.Columns) == 0 {
		return res.Msg + "\n"
	}
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	cells := make([][]string, len(res.Rows))
	for ri, row := range res.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			var txt string
			switch v := v.(type) {
			case nil:
				txt = "NULL"
			case []byte:
				txt = `\x` + hex.EncodeToString(v)
			default:
				txt = fmt.Sprint(v)
			}
			cells[ri][ci] = txt
			if n := utf8.RuneCountInString(txt); ci < len(widths) && n > widths[ci] {
				widths[ci] = n
			}
		}
	}
	var sb strings.Builder
	writeRow := func(vals []string) {
		sb.WriteString("|")
		for i, v := range vals {
			sb.WriteString(" " + v + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(v)) + " |")
		}
		sb.WriteString("\n")
	}
	sep := "+"
	for _, w := range widths {
		sep += strings.Repeat("-", w+2) + "+"
	}
	sb.WriteString(sep + "\n")
	writeRow(res.Columns)
	sb.WriteString(sep + "\n")
	for _, row := range cells {
		writeRow(row)
	}
	sb.WriteString(sep + "\n")
	sb.WriteString(fmt.Sprintf("(%d rows)\n", len(res.Rows)))
	return sb.String()
}
