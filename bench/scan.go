package main

import (
	"context"
	"fmt"
	"math/rand"

	"globaldb"
	"globaldb/gsql"
)

// scan_geo: the scan pipeline. Two SQL sessions in Langzhong and Dongguan
// read shard primaries in all three cities on a cluster without a WAL,
// cycling five analytic statements and one point UPDATE. Coordinator
// cursors, prefetch and merge, data-node fragment execution, the fragment
// kernels and the rows that cross the WAN do most of the work while the
// commit path is nearly idle. Storage-row and WAN-row counts per statement
// repeat exactly, so they double as the correctness check.

const (
	scanFiltered = iota
	scanAgg
	scanLookupJoin
	scanHashJoin
	scanLimit
	scanUpdate
	scanKinds
)

var scanKindNames = [scanKinds]string{"filtered_scan", "pushed_agg", "lookup_join", "hash_join", "limit", "update"}

const (
	scanWarehouses   = 8
	scanTags         = 5
	scanStmtFiltered = "SELECT i_id, price FROM items WHERE qty >= 90"
	scanStmtAgg      = "SELECT tag, COUNT(*), SUM(qty) FROM items GROUP BY tag"
	scanStmtLookup   = "SELECT i.i_id, w.name FROM items i JOIN warehouses w ON w.w_id = i.w_id WHERE i.qty >= 95"
	// warehouses.code is not a key, so this join cannot be pushed as a
	// lookup: the coordinator hash-joins the two scans.
	scanStmtHash   = "SELECT i.i_id, w.name FROM items i JOIN warehouses w ON w.code = i.src WHERE i.qty >= 95"
	scanStmtLimit  = "SELECT * FROM items WHERE w_id = ? AND i_id > ? ORDER BY w_id, i_id LIMIT 10"
	scanStmtUpdate = "UPDATE items SET price = ? WHERE w_id = ? AND i_id = ?"
)

var scanStmts = [scanKinds]string{scanStmtFiltered, scanStmtAgg, scanStmtLookup, scanStmtHash, scanStmtLimit, scanStmtUpdate}

var scanCities = [numClients]string{"langzhong", "dongguan"}

type scanOp struct {
	kind    uint8
	w, item int64
	price   float64
}

type scanWorkload struct {
	perWarehouse int
	wantRows     [scanKinds]int
	wantQtySum   float64
	ops          [numClients][]scanOp
}

func (w *scanWorkload) name() string { return "scan_geo" }

func scanQty(item int) int64 { return int64(item * 7 % 100) }

func (w *scanWorkload) generate(seed int64, sc scale) {
	w.perWarehouse = atLeast(sc.rows(1000)/100*100, 100)
	var ge90, ge95 int
	w.wantQtySum = 0
	for i := 1; i <= w.perWarehouse; i++ {
		q := scanQty(i)
		if q >= 90 {
			ge90++
		}
		if q >= 95 {
			ge95++
		}
		w.wantQtySum += float64(q)
	}
	w.wantQtySum *= scanWarehouses
	w.wantRows = [scanKinds]int{ge90 * scanWarehouses, scanTags, ge95 * scanWarehouses, ge95 * scanWarehouses, 10, 1}
	n := sc.count(2880)
	for k := 0; k < numClients; k++ {
		rng := rand.New(rand.NewSource(seed*1021 + int64(k)))
		ops := make([]scanOp, n)
		for i := range ops {
			// The statements cycle in a fixed order; only keys are seeded.
			op := scanOp{kind: uint8((i + k*3) % scanKinds)}
			switch op.kind {
			case scanLimit:
				op.w = int64(1 + rng.Intn(scanWarehouses))
				op.item = int64(rng.Intn(w.perWarehouse - 10))
			case scanUpdate:
				// Client k writes only warehouses of its own parity.
				op.w = int64(1 + rng.Intn(scanWarehouses/2)*2 + k)
				op.item = int64(1 + rng.Intn(w.perWarehouse))
				op.price = float64(1 + rng.Intn(9999))
			}
			ops[i] = op
		}
		w.ops[k] = ops
	}
}

type scanEnv struct {
	w        *scanWorkload
	db       *globaldb.DB
	sessions []*scanSession
}

func (w *scanWorkload) setup(ctx context.Context, _ string) (env, error) {
	db, err := globaldb.Open(geoConfig(""))
	if err != nil {
		return nil, err
	}
	e := &scanEnv{w: w, db: db}
	if err := e.open(ctx); err != nil {
		db.Close()
		return nil, err
	}
	return e, nil
}

// loadItems creates and loads the scan data set — items over scanWarehouses
// warehouses and one warehouses row each — which the ladder and the micro
// probes use too, at their own size.
func loadItems(ctx context.Context, db *globaldb.DB, perWarehouse int) error {
	items := &globaldb.Schema{Name: "items", PK: []int{0, 1}, ShardBy: 0, Columns: []globaldb.Column{
		{Name: "w_id", Kind: globaldb.Int64}, {Name: "i_id", Kind: globaldb.Int64},
		{Name: "qty", Kind: globaldb.Int64}, {Name: "src", Kind: globaldb.Int64},
		{Name: "price", Kind: globaldb.Float64}, {Name: "tag", Kind: globaldb.String}}}
	warehouses := &globaldb.Schema{Name: "warehouses", PK: []int{0}, ShardBy: 0, Columns: []globaldb.Column{
		{Name: "w_id", Kind: globaldb.Int64}, {Name: "name", Kind: globaldb.String},
		{Name: "code", Kind: globaldb.Int64}}}
	for _, s := range []*globaldb.Schema{items, warehouses} {
		if err := db.CreateTable(ctx, s); err != nil {
			return err
		}
	}
	var itemRows, whRows []globaldb.Row
	for wh := int64(1); wh <= scanWarehouses; wh++ {
		for i := int64(1); i <= int64(perWarehouse); i++ {
			itemRows = append(itemRows, itemRow(wh, i))
		}
		whRows = append(whRows, globaldb.Row{wh, fmt.Sprintf("warehouse-%d", wh), wh})
	}
	if err := loadRows(ctx, db, "items", itemRows); err != nil {
		return err
	}
	return loadRows(ctx, db, "warehouses", whRows)
}

// itemRow is item i of warehouse w as loaded.
func itemRow(w, i int64) globaldb.Row {
	return globaldb.Row{w, i, scanQty(int(i)), i%scanWarehouses + 1, float64(i%500) + 0.5, fmt.Sprintf("t%d", i%scanTags)}
}

func (e *scanEnv) open(ctx context.Context) error {
	if err := loadItems(ctx, e.db, e.w.perWarehouse); err != nil {
		return err
	}
	if err := waitRCPCoversLoad(ctx, e.db); err != nil {
		return err
	}
	for k := 0; k < numClients; k++ {
		s, err := newScanSession(ctx, e.db, scanCities[k], e.w, e.w.ops[k])
		if err != nil {
			return err
		}
		e.sessions = append(e.sessions, s)
	}
	// Calibrate: one quiet execution of each statement fixes the storage
	// and WAN row counts every later execution must repeat.
	cal := e.sessions[0]
	for kind := uint8(0); kind < scanLimit; kind++ {
		res, err := cal.stmts[kind].Exec(ctx)
		if err != nil {
			return fmt.Errorf("calibrate %s: %w", scanKindNames[kind], err)
		}
		for _, s := range e.sessions {
			s.wantScan[kind] = res.Scan
		}
	}
	total := int64(e.w.perWarehouse * scanWarehouses)
	for kind := uint8(0); kind < scanLimit; kind++ {
		if got := cal.wantScan[kind].StorageRows - cal.wantScan[kind].LookupRows; got != total && kind != scanHashJoin {
			return fmt.Errorf("%s read %d storage rows, want the table's %d", scanKindNames[kind], got, total)
		}
	}
	return nil
}

func (e *scanEnv) database() *globaldb.DB { return e.db }
func (e *scanEnv) close()                 { e.db.Close() }

func (e *scanEnv) clients() []client {
	out := make([]client, len(e.sessions))
	for i, s := range e.sessions {
		out[i] = s
	}
	return out
}

func (e *scanEnv) replicaReads() (int64, int64) { return 0, 0 } // reads primaries only

// check: qty is never written, so the aggregate must still be exact, and
// the last price each client wrote must be the one stored.
func (e *scanEnv) check(ctx context.Context, executed []int) error {
	s := e.sessions[0]
	res, err := s.sess.Exec(ctx, "SELECT COUNT(*), SUM(qty) FROM items")
	if err != nil {
		return err
	}
	wantN := int64(e.w.perWarehouse * scanWarehouses)
	if n, sum := res.Rows[0][0].(int64), res.Rows[0][1]; n != wantN || fmt.Sprint(sum) != fmt.Sprint(int64(e.w.wantQtySum)) {
		return fmt.Errorf("items has %d rows with SUM(qty)=%v, want %d and %v", n, sum, wantN, e.w.wantQtySum)
	}
	for k, ops := range e.w.ops {
		for i := executed[k] - 1; i >= 0 && i > executed[k]-len(ops); i-- {
			op := ops[i%len(ops)]
			if op.kind != scanUpdate {
				continue
			}
			res, err := s.sess.Exec(ctx, "SELECT price FROM items WHERE w_id = ? AND i_id = ?", op.w, op.item)
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != op.price {
				return fmt.Errorf("item %d/%d priced %v after client %d's last update, want %v", op.w, op.item, res.Rows, k, op.price)
			}
			break
		}
	}
	return nil
}

// scanSession is one client: an in-process SQL session with its prepared
// statements and the row counts each statement must repeat.
type scanSession struct {
	sess     *gsql.Session
	w        *scanWorkload
	ops      []scanOp
	stmts    [scanKinds]*gsql.Stmt
	wantScan [scanKinds]globaldb.ScanStats
}

func newScanSession(ctx context.Context, db *globaldb.DB, city string, w *scanWorkload, ops []scanOp) (*scanSession, error) {
	sess, err := gsql.Connect(db, city)
	if err != nil {
		return nil, err
	}
	s := &scanSession{sess: sess, w: w, ops: ops}
	for kind, text := range scanStmts {
		if s.stmts[kind], err = sess.Prepare(ctx, text); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", scanKindNames[kind], err)
		}
	}
	return s, nil
}

func (s *scanSession) numOps() int { return len(s.ops) }

func (s *scanSession) do(ctx context.Context, i int, tr *tracer, stmt int64) (class, error) {
	op := s.ops[i]
	name := scanKindNames[op.kind]
	root := tr.begin(name, -1, stmt)
	sp := tr.begin("exec", root, stmt)
	var (
		res *gsql.Result
		err error
	)
	switch op.kind {
	case scanLimit:
		res, err = s.stmts[op.kind].Exec(ctx, op.w, op.item)
	case scanUpdate:
		res, err = s.stmts[op.kind].Exec(ctx, op.price, op.w, op.item)
	default:
		res, err = s.stmts[op.kind].Exec(ctx)
	}
	tr.end(sp)
	tr.end(root)
	if op.kind == scanUpdate {
		if err == nil && res.Affected != 1 {
			err = fmt.Errorf("update %d/%d touched %d rows", op.w, op.item, res.Affected)
		}
		return classWrite, err
	}
	if err != nil {
		return classRead, err
	}
	if len(res.Rows) != s.w.wantRows[op.kind] {
		return classRead, fmt.Errorf("%s returned %d rows, want %d", name, len(res.Rows), s.w.wantRows[op.kind])
	}
	if op.kind == scanAgg {
		var sum float64
		for _, r := range res.Rows {
			switch v := r[2].(type) {
			case int64:
				sum += float64(v)
			case float64:
				sum += v
			}
		}
		if sum != s.w.wantQtySum {
			return classRead, fmt.Errorf("pushed_agg SUM(qty) totals %v, want %v", sum, s.w.wantQtySum)
		}
	}
	if want := s.wantScan[op.kind]; op.kind < scanLimit &&
		(res.Scan.StorageRows != want.StorageRows || res.Scan.WANRows != want.WANRows) {
		return classRead, fmt.Errorf("%s read %d storage rows and shipped %d over the WAN, want %d and %d",
			name, res.Scan.StorageRows, res.Scan.WANRows, want.StorageRows, want.WANRows)
	}
	return classRead, nil
}
