package main

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"time"

	"globaldb"
	_ "globaldb/driver" // registers the "globaldb" database/sql driver
	"globaldb/server"
)

// sql_front_local: two database/sql connections over TCP to an in-process
// wire server on a zero-RTT cluster without a WAL. There is no WAN at all,
// so the driver, the wire protocol, the SQL layer, fragments, key encoding
// and MVCC — CPU and allocations — set the result. A WAN-round-trip
// optimisation must show nothing here, and DML runs beside the reads so a
// read-path gain that taxes the write path shows.

const (
	sqlPoint = iota
	sqlRange
	sqlGroup
	sqlJoin
	sqlAdhoc
	sqlUpdate
	sqlUpdateRange
)

// sqlMix is the statement mix in percent, in the order of the kinds above.
var sqlMix = []int{50, 10, 5, 5, 10, 15, 5}

const (
	sqlRangeRows  = 200
	sqlGroupRows  = 1000
	sqlJoinRows   = 200
	sqlBlock      = 20 // ids are owned in blocks of 20, alternating by client
	sqlGroups     = 10
	sqlStmtPoint  = "SELECT bal FROM acct WHERE id = ?"
	sqlStmtRange  = "SELECT id, bal FROM acct WHERE id BETWEEN ? AND ? AND grp <> ?"
	sqlStmtGroup  = "SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE id BETWEEN ? AND ? GROUP BY grp"
	sqlStmtJoin   = "SELECT a.id, g.label FROM acct a JOIN grp_info g ON g.grp = a.grp WHERE a.id BETWEEN ? AND ? AND a.bal >= ?"
	sqlStmtUpdate = "UPDATE acct SET name = ? WHERE id = ?"
	sqlStmtUpdRng = "UPDATE acct SET name = ? WHERE id BETWEEN ? AND ?"
)

// sqlOp is one pre-generated statement with the result it must produce.
type sqlOp struct {
	kind     uint8
	id, hi   int64   // key, or range [id, hi]
	arg      float64 // join: bal threshold; range: excluded group
	text     string  // ad-hoc statement text / new name
	wantRows int
	wantSum  float64 // point: bal; group: SUM(bal) over the range
}

type sqlWorkload struct {
	rows  int
	bal   []float64 // by id; never updated, so every read is checkable
	total float64
	ops   [numClients][]sqlOp
}

func (w *sqlWorkload) name() string { return "sql_front_local" }

func (w *sqlWorkload) generate(seed int64, sc scale) {
	w.rows = atLeast(sc.rows(20000)/(2*sqlBlock)*(2*sqlBlock), 4*sqlGroupRows)
	data := rand.New(rand.NewSource(seed*7 + 1))
	w.bal = make([]float64, w.rows)
	prefix := make([]float64, w.rows+1)
	for i := range w.bal {
		w.bal[i] = float64(100 + data.Intn(900))
		prefix[i+1] = prefix[i] + w.bal[i]
	}
	w.total = prefix[w.rows]
	n := sc.count(16000)
	blocks := w.rows / sqlBlock
	for k := 0; k < numClients; k++ {
		rng := rand.New(rand.NewSource(seed*1013 + int64(k)))
		kinds := shuffledMix(rng, n, sqlMix)
		ops := make([]sqlOp, n)
		for i := range ops {
			op := sqlOp{kind: kinds[i]}
			ownBlock := int64(rng.Intn(blocks/2)*2 + k)
			switch op.kind {
			case sqlPoint:
				op.id = int64(rng.Intn(w.rows))
				op.wantRows, op.wantSum = 1, w.bal[op.id]
			case sqlAdhoc:
				op.id = int64(rng.Intn(w.rows))
				// The sequence number makes every text new to the session's
				// 256-entry plan cache, so parse and plan run each time.
				op.text = fmt.Sprintf("SELECT bal FROM acct WHERE id = %d AND bal > -%d", op.id, k*n+i+1)
				op.wantRows, op.wantSum = 1, w.bal[op.id]
			case sqlRange:
				op.id = int64(rng.Intn(w.rows - sqlRangeRows))
				op.hi = op.id + sqlRangeRows - 1
				g := int64(rng.Intn(sqlGroups))
				op.arg = float64(g)
				for id := op.id; id <= op.hi; id++ {
					if id%sqlGroups != g {
						op.wantRows++
					}
				}
			case sqlGroup:
				op.id = int64(rng.Intn(w.rows - sqlGroupRows))
				op.hi = op.id + sqlGroupRows - 1
				op.wantRows, op.wantSum = sqlGroups, prefix[op.hi+1]-prefix[op.id]
			case sqlJoin:
				op.id = int64(rng.Intn(w.rows - sqlJoinRows))
				op.hi = op.id + sqlJoinRows - 1
				op.arg = float64(800 + rng.Intn(150))
				for id := op.id; id <= op.hi; id++ {
					if w.bal[id] >= op.arg {
						op.wantRows++
					}
				}
			case sqlUpdate:
				op.id = ownBlock*sqlBlock + int64(rng.Intn(sqlBlock))
				op.text = fmt.Sprintf("c%d-%d", k, i)
				op.wantRows = 1
			case sqlUpdateRange:
				op.id = ownBlock * sqlBlock
				op.hi = op.id + sqlBlock - 1
				op.text = fmt.Sprintf("c%d-%d", k, i)
				op.wantRows = sqlBlock
			}
			ops[i] = op
		}
		w.ops[k] = ops
	}
}

type sqlEnv struct {
	w     *sqlWorkload
	db    *globaldb.DB
	srv   *server.Server
	pool  *sql.DB
	conns []*sqlConn
}

func (w *sqlWorkload) setup(ctx context.Context, _ string) (env, error) {
	db, err := globaldb.Open(localConfig())
	if err != nil {
		return nil, err
	}
	e := &sqlEnv{w: w, db: db}
	if err := e.load(ctx); err != nil {
		e.close()
		return nil, err
	}
	e.srv = server.New(db, server.Options{Region: db.Regions()[0]})
	if err := e.srv.Start("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	dsn := fmt.Sprintf("tcp://%s?region=%s&maxconns=%d", e.srv.Addr(), db.Regions()[0], numClients)
	if e.pool, err = sql.Open("globaldb", dsn); err != nil {
		e.close()
		return nil, err
	}
	for k := 0; k < numClients; k++ {
		c, err := newSQLConn(ctx, e.pool, w.ops[k])
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// acctSchema is the accounts table of sql_front_local and fresh_reads_geo.
func acctSchema() *globaldb.Schema {
	return &globaldb.Schema{Name: "acct", PK: []int{0}, Columns: []globaldb.Column{
		{Name: "id", Kind: globaldb.Int64}, {Name: "grp", Kind: globaldb.Int64},
		{Name: "bal", Kind: globaldb.Float64}, {Name: "name", Kind: globaldb.String}}}
}

func (e *sqlEnv) load(ctx context.Context) error {
	schemas := []*globaldb.Schema{
		acctSchema(),
		{Name: "grp_info", PK: []int{0}, Columns: []globaldb.Column{
			{Name: "grp", Kind: globaldb.Int64}, {Name: "label", Kind: globaldb.String}}},
	}
	for _, s := range schemas {
		if err := e.db.CreateTable(ctx, s); err != nil {
			return err
		}
	}
	rows := make([]globaldb.Row, 0, e.w.rows+sqlGroups)
	for id, bal := range e.w.bal {
		rows = append(rows, globaldb.Row{int64(id), int64(id % sqlGroups), bal, "init"})
	}
	if err := loadRows(ctx, e.db, "acct", rows); err != nil {
		return err
	}
	groups := make([]globaldb.Row, sqlGroups)
	for g := range groups {
		groups[g] = globaldb.Row{int64(g), fmt.Sprintf("group-%d", g)}
	}
	if err := loadRows(ctx, e.db, "grp_info", groups); err != nil {
		return err
	}
	return waitRCPCoversLoad(ctx, e.db)
}

// loadRows inserts rows through the typed API in chunked transactions. Each
// row is written from the city that holds its shard's primary, as a real
// loader would, so no load pays a WAN round trip per row; one loader runs
// per city.
func loadRows(ctx context.Context, db *globaldb.DB, table string, rows []globaldb.Row) error {
	sch, err := db.Schema(table)
	if err != nil {
		return err
	}
	c := db.Cluster()
	byRegion := map[string][]globaldb.Row{}
	for _, r := range rows {
		region := c.Primaries()[c.ShardOf(r[sch.ShardBy])].Region()
		byRegion[region] = append(byRegion[region], r)
	}
	const chunk = 500
	errs := make(chan error, len(byRegion))
	for region, part := range byRegion {
		go func(region string, part []globaldb.Row) {
			errs <- func() error {
				sess, err := db.Connect(region)
				if err != nil {
					return err
				}
				for len(part) > 0 {
					n := chunk
					if n > len(part) {
						n = len(part)
					}
					tx, err := sess.Begin(ctx)
					if err != nil {
						return err
					}
					for _, r := range part[:n] {
						if err := tx.Insert(ctx, table, r); err != nil {
							_ = tx.Abort(ctx)
							return err
						}
					}
					if err := tx.Commit(ctx); err != nil {
						return err
					}
					part = part[n:]
				}
				return nil
			}()
		}(region, part)
	}
	var first error
	for range byRegion {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("load %s: %w", table, err)
		}
	}
	return first
}

func (e *sqlEnv) database() *globaldb.DB     { return e.db }
func (e *sqlEnv) wireServer() *server.Server { return e.srv }

func (e *sqlEnv) clients() []client {
	out := make([]client, len(e.conns))
	for i, c := range e.conns {
		out[i] = c
	}
	return out
}

func (e *sqlEnv) replicaReads() (int64, int64) { return 0, 0 } // reads primaries only

func (e *sqlEnv) close() {
	for _, c := range e.conns {
		c.close()
	}
	if e.pool != nil {
		e.pool.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.srv.Shutdown(ctx)
		cancel()
	}
	e.db.Close()
}

// check: bal is never written, so the table total must still be exact, and
// the last name each client wrote must be the one stored.
func (e *sqlEnv) check(ctx context.Context, executed []int) error {
	// The pool is capped at the two client connections, so check on one.
	conn := e.conns[0].conn
	var n int64
	var sum float64
	if err := conn.QueryRowContext(ctx, "SELECT COUNT(*), SUM(bal) FROM acct").Scan(&n, &sum); err != nil {
		return err
	}
	if int(n) != e.w.rows || sum != e.w.total {
		return fmt.Errorf("acct has %d rows summing to %v, want %d rows summing to %v", n, sum, e.w.rows, e.w.total)
	}
	for k, ops := range e.w.ops {
		for i := executed[k] - 1; i >= 0 && i > executed[k]-len(ops); i-- {
			op := ops[i%len(ops)]
			if op.kind != sqlUpdate && op.kind != sqlUpdateRange {
				continue
			}
			var name string
			if err := conn.QueryRowContext(ctx, "SELECT name FROM acct WHERE id = ?", op.id).Scan(&name); err != nil {
				return err
			}
			if name != op.text {
				return fmt.Errorf("acct %d is named %q after client %d's last update, want %q", op.id, name, k, op.text)
			}
			break
		}
	}
	return nil
}

// sqlConn is one client: a pinned connection with its prepared statements.
type sqlConn struct {
	conn  *sql.Conn
	ops   []sqlOp
	stmts map[string]*sql.Stmt
}

func newSQLConn(ctx context.Context, pool *sql.DB, ops []sqlOp) (*sqlConn, error) {
	conn, err := pool.Conn(ctx)
	if err != nil {
		return nil, err
	}
	c := &sqlConn{conn: conn, ops: ops, stmts: map[string]*sql.Stmt{}}
	for _, text := range []string{sqlStmtPoint, sqlStmtRange, sqlStmtGroup, sqlStmtJoin, sqlStmtUpdate, sqlStmtUpdRng} {
		st, err := conn.PrepareContext(ctx, text)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("prepare %q: %w", text, err)
		}
		c.stmts[text] = st
	}
	return c, nil
}

func (c *sqlConn) close() {
	for _, st := range c.stmts {
		st.Close()
	}
	c.conn.Close()
}

func (c *sqlConn) numOps() int { return len(c.ops) }

func (c *sqlConn) do(ctx context.Context, i int, tr *tracer, stmt int64) (class, error) {
	op := &c.ops[i]
	switch op.kind {
	case sqlUpdate:
		return classWrite, c.exec(ctx, tr, stmt, "update", op, sqlStmtUpdate, op.text, op.id)
	case sqlUpdateRange:
		return classWrite, c.exec(ctx, tr, stmt, "update_range", op, sqlStmtUpdRng, op.text, op.id, op.hi)
	}
	switch op.kind {
	case sqlPoint:
		return classRead, c.query(ctx, tr, stmt, "point", op, sqlStmtPoint, op.id)
	case sqlAdhoc:
		return classRead, c.query(ctx, tr, stmt, "adhoc", op, "")
	case sqlRange:
		return classRead, c.query(ctx, tr, stmt, "range", op, sqlStmtRange, op.id, op.hi, int64(op.arg))
	case sqlGroup:
		return classRead, c.query(ctx, tr, stmt, "group", op, sqlStmtGroup, op.id, op.hi)
	default:
		return classRead, c.query(ctx, tr, stmt, "join", op, sqlStmtJoin, op.id, op.hi, op.arg)
	}
}

func (c *sqlConn) exec(ctx context.Context, tr *tracer, stmt int64, name string, op *sqlOp, text string, args ...any) error {
	root := tr.begin(name, -1, stmt)
	defer tr.end(root)
	sp := tr.begin("exec", root, stmt)
	res, err := c.stmts[text].ExecContext(ctx, args...)
	tr.end(sp)
	if err != nil {
		return err
	}
	if n, _ := res.RowsAffected(); int(n) != op.wantRows {
		return fmt.Errorf("%s affected %d rows, want %d", name, n, op.wantRows)
	}
	return nil
}

// query runs one SELECT and drains it row by row (results stream off the
// server in batches), checking the row count and the value or sum the
// generator computed. An empty prepared text runs op.text ad hoc.
func (c *sqlConn) query(ctx context.Context, tr *tracer, stmt int64, name string, op *sqlOp, prepared string, args ...any) error {
	root := tr.begin(name, -1, stmt)
	defer tr.end(root)
	sp := tr.begin("query", root, stmt)
	var rows *sql.Rows
	var err error
	if prepared == "" {
		rows, err = c.conn.QueryContext(ctx, op.text)
	} else {
		rows, err = c.stmts[prepared].QueryContext(ctx, args...)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("drain", root, stmt)
	n, sum, err := drainSQL(rows, op.kind)
	tr.end(sp)
	if err != nil {
		return err
	}
	if n != op.wantRows {
		return fmt.Errorf("%s [%d,%d] returned %d rows, want %d", name, op.id, op.hi, n, op.wantRows)
	}
	if (op.kind == sqlPoint || op.kind == sqlAdhoc || op.kind == sqlGroup) && sum != op.wantSum {
		return fmt.Errorf("%s [%d,%d] summed to %v, want %v", name, op.id, op.hi, sum, op.wantSum)
	}
	return nil
}

func drainSQL(rows *sql.Rows, kind uint8) (n int, sum float64, err error) {
	defer rows.Close()
	var (
		id, cnt int64
		bal     float64
		label   string
	)
	for rows.Next() {
		switch kind {
		case sqlPoint, sqlAdhoc:
			err = rows.Scan(&bal)
			sum += bal
		case sqlRange:
			err = rows.Scan(&id, &bal)
		case sqlGroup:
			err = rows.Scan(&id, &cnt, &bal)
			sum += bal
		default:
			err = rows.Scan(&id, &label)
		}
		if err != nil {
			return n, sum, err
		}
		n++
	}
	return n, sum, rows.Err()
}
