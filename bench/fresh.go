package main

import (
	"context"
	"fmt"
	"math/rand"

	"globaldb"
	"globaldb/gsql"
	"globaldb/internal/cluster"
)

// fresh_reads_geo: the paper's read-on-replica contribution. One SQL session
// in Xi'an commits transfer transactions (half of them cross-shard) on a
// durable three-city cluster, reading the debited balance back from its
// primary after each one, while one session in Dongguan reads with
// SET STALENESS = '200ms'. Redo shipping, replica replay, RCP collection and
// skyline routing do the work: a commit-path speed-up bought by starving
// shipping or RCP collection shows up here as staler reads, and every
// SUM(bal) must equal the constant total because a read at the RCP sees
// whole transactions only.

const (
	freshPoint = iota
	freshRange
	freshSum
)

// freshWantRows is the result size of each read kind.
var freshWantRows = [...]int{freshPoint: 1, freshRange: freshRangeRows, freshSum: 1}

// freshMix is point get / 100-row range scan / SUM(bal), in percent.
var freshMix = []int{70, 20, 10}

const (
	freshRangeRows  = 100
	freshStaleness  = "200ms"
	freshWriterCity = "xian"
	freshReaderCity = "dongguan"
	freshStmtDebit  = "UPDATE acct SET bal = bal - ? WHERE id = ?"
	freshStmtCredit = "UPDATE acct SET bal = bal + ? WHERE id = ?"
	freshStmtCheck  = "SELECT bal FROM acct WHERE id = ?"
	freshStmtPoint  = "SELECT bal FROM acct WHERE id = ?"
	freshStmtRange  = "SELECT id, bal FROM acct WHERE id BETWEEN ? AND ?"
	freshStmtSum    = "SELECT SUM(bal) FROM acct"
)

type freshTransfer struct {
	from, to int64
	amount   float64
}

type freshRead struct {
	kind uint8
	id   int64
}

type freshWorkload struct {
	rows      int
	bal       []float64
	total     float64
	transfers []freshTransfer
	reads     []freshRead
}

func (w *freshWorkload) name() string { return "fresh_reads_geo" }

func (w *freshWorkload) generate(seed int64, sc scale) {
	w.rows = atLeast(sc.rows(2000), 4*freshRangeRows)
	data := rand.New(rand.NewSource(seed*11 + 3))
	w.bal = make([]float64, w.rows)
	w.total = 0
	for i := range w.bal {
		w.bal[i] = float64(1000 + data.Intn(9000))
		w.total += w.bal[i]
	}
	rng := rand.New(rand.NewSource(seed*1019 + 5))
	// Exactly half of the transfers cross shards (2PC), half stay on one.
	cross := shuffledMix(rng, sc.count(700), []int{50, 50})
	w.transfers = make([]freshTransfer, len(cross))
	for i := range w.transfers {
		t := freshTransfer{from: int64(rng.Intn(w.rows)), amount: float64(1 + rng.Intn(50))}
		for {
			t.to = int64(rng.Intn(w.rows))
			sameShard := cluster.ShardOf(t.from, geoShards) == cluster.ShardOf(t.to, geoShards)
			if t.to != t.from && sameShard == (cross[i] == 0) {
				break
			}
		}
		w.transfers[i] = t
	}
	kinds := shuffledMix(rng, sc.count(20000), freshMix)
	w.reads = make([]freshRead, len(kinds))
	for i, k := range kinds {
		w.reads[i] = freshRead{kind: k, id: int64(rng.Intn(w.rows - freshRangeRows))}
	}
}

type freshEnv struct {
	w      *freshWorkload
	db     *globaldb.DB
	writer *freshWriter
	reader *freshReader
}

func (w *freshWorkload) setup(ctx context.Context, dir string) (env, error) {
	db, err := globaldb.Open(geoConfig(dir))
	if err != nil {
		return nil, err
	}
	e := &freshEnv{w: w, db: db}
	if err := e.open(ctx); err != nil {
		db.Close()
		return nil, err
	}
	return e, nil
}

func (e *freshEnv) open(ctx context.Context) error {
	if err := e.db.CreateTable(ctx, acctSchema()); err != nil {
		return err
	}
	rows := make([]globaldb.Row, len(e.w.bal))
	for id, bal := range e.w.bal {
		rows[id] = globaldb.Row{int64(id), int64(id % 10), bal, fmt.Sprintf("acct-%d", id)}
	}
	if err := loadRows(ctx, e.db, "acct", rows); err != nil {
		return err
	}
	if err := waitRCPCoversLoad(ctx, e.db); err != nil {
		return err
	}
	ws, err := gsql.Connect(e.db, freshWriterCity)
	if err != nil {
		return err
	}
	e.writer = &freshWriter{sess: ws, ops: e.w.transfers, bal: append([]float64(nil), e.w.bal...)}
	for text, dst := range map[string]**gsql.Stmt{
		freshStmtDebit: &e.writer.debit, freshStmtCredit: &e.writer.credit, freshStmtCheck: &e.writer.check} {
		if *dst, err = ws.Prepare(ctx, text); err != nil {
			return err
		}
	}
	rs, err := gsql.Connect(e.db, freshReaderCity)
	if err != nil {
		return err
	}
	if _, err := rs.Exec(ctx, "SET STALENESS = '"+freshStaleness+"'"); err != nil {
		return err
	}
	e.reader = &freshReader{sess: rs, ops: e.w.reads, total: e.w.total}
	for text, dst := range map[string]**gsql.Stmt{
		freshStmtPoint: &e.reader.point, freshStmtRange: &e.reader.rng, freshStmtSum: &e.reader.sum} {
		if *dst, err = rs.Prepare(ctx, text); err != nil {
			return err
		}
	}
	return nil
}

func (e *freshEnv) database() *globaldb.DB { return e.db }
func (e *freshEnv) clients() []client      { return []client{e.writer, e.reader} }
func (e *freshEnv) close()                 { e.db.Close() }

func (e *freshEnv) replicaReads() (int64, int64) { return e.reader.onReplicas, e.reader.reads }

// check compares every balance the committed transfers should have left
// with a read from the primaries.
func (e *freshEnv) check(ctx context.Context, _ []int) error {
	sess, err := gsql.Connect(e.db, freshWriterCity)
	if err != nil {
		return err
	}
	res, err := sess.Exec(ctx, "SELECT id, bal FROM acct")
	if err != nil {
		return err
	}
	if len(res.Rows) != e.w.rows {
		return fmt.Errorf("acct has %d rows, want %d", len(res.Rows), e.w.rows)
	}
	for _, r := range res.Rows {
		if id, bal := r[0].(int64), r[1].(float64); bal != e.writer.bal[id] {
			return fmt.Errorf("acct %d holds %v after the run, want %v", id, bal, e.writer.bal[id])
		}
	}
	return nil
}

// freshWriter alternates a transfer, one explicit transaction, with a read
// of the account it debited. The session sets no staleness bound, so the
// read goes to the row's primary — a third of them in each city — and must
// return the balance the committed transfers left.
type freshWriter struct {
	sess                 *gsql.Session
	ops                  []freshTransfer
	debit, credit, check *gsql.Stmt
	// bal is what the committed transfers leave in every account.
	bal []float64
}

func (c *freshWriter) numOps() int { return 2 * len(c.ops) }

func (c *freshWriter) do(ctx context.Context, i int, tr *tracer, stmt int64) (class, error) {
	t := c.ops[i/2]
	if i%2 == 1 {
		return classRead, c.readBack(ctx, t.from, tr, stmt)
	}
	root := tr.begin("transfer", -1, stmt)
	defer tr.end(root)
	step := func(name string, fn func() (*gsql.Result, error), want int) error {
		sp := tr.begin(name, root, stmt)
		res, err := fn()
		tr.end(sp)
		if err == nil && res.Affected != want {
			err = fmt.Errorf("transfer %s touched %d rows, want %d", name, res.Affected, want)
		}
		return err
	}
	err := step("begin", func() (*gsql.Result, error) { return c.sess.Exec(ctx, "BEGIN") }, 0)
	if err != nil {
		return classWrite, err
	}
	err = step("debit", func() (*gsql.Result, error) { return c.debit.Exec(ctx, t.amount, t.from) }, 1)
	if err == nil {
		err = step("credit", func() (*gsql.Result, error) { return c.credit.Exec(ctx, t.amount, t.to) }, 1)
	}
	if err != nil {
		_, _ = c.sess.Exec(ctx, "ROLLBACK")
		return classWrite, err
	}
	err = step("commit", func() (*gsql.Result, error) { return c.sess.Exec(ctx, "COMMIT") }, 0)
	if err == nil {
		c.bal[t.from] -= t.amount
		c.bal[t.to] += t.amount
	}
	return classWrite, err
}

func (c *freshWriter) readBack(ctx context.Context, id int64, tr *tracer, stmt int64) error {
	root := tr.begin("read-back", -1, stmt)
	sp := tr.begin("exec", root, stmt)
	res, err := c.check.Exec(ctx, id)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 {
		return fmt.Errorf("read-back of acct %d returned %d rows", id, len(res.Rows))
	}
	if got, _ := res.Rows[0][0].(float64); got != c.bal[id] {
		return fmt.Errorf("acct %d reads %v at its primary after the transfer committed, want %v", id, res.Rows[0][0], c.bal[id])
	}
	return nil
}

// freshReader reads under the staleness bound and checks every result.
type freshReader struct {
	sess              *gsql.Session
	ops               []freshRead
	point, rng, sum   *gsql.Stmt
	total             float64
	reads, onReplicas int64
}

func (c *freshReader) numOps() int { return len(c.ops) }

func (c *freshReader) do(ctx context.Context, i int, tr *tracer, stmt int64) (class, error) {
	op := c.ops[i]
	var (
		name string
		res  *gsql.Result
		err  error
	)
	root := tr.begin("read", -1, stmt)
	sp := tr.begin("exec", root, stmt)
	switch op.kind {
	case freshPoint:
		name = "point"
		res, err = c.point.Exec(ctx, op.id)
	case freshRange:
		name = "range"
		res, err = c.rng.Exec(ctx, op.id, op.id+freshRangeRows-1)
	default:
		name = "sum"
		res, err = c.sum.Exec(ctx)
	}
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return classRouted, err
	}
	c.reads++
	if res.OnReplicas {
		c.onReplicas++
	}
	if want := freshWantRows[op.kind]; len(res.Rows) != want {
		return classRouted, fmt.Errorf("%s read at %d returned %d rows, want %d", name, op.id, len(res.Rows), freshWantRows[op.kind])
	}
	if op.kind == freshSum {
		if got, _ := res.Rows[0][0].(float64); got != c.total {
			return classRouted, fmt.Errorf("SUM(bal) = %v at the read snapshot, want the constant %v", res.Rows[0][0], c.total)
		}
	}
	return classRouted, nil
}
