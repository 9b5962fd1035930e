package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"globaldb"
	"globaldb/internal/workload/tpcc"
)

// tpcc_geo: the paper's headline OLTP result. Two terminals homed in
// different cities run New-Order and Payment through the typed API against
// a durable three-city cluster; a tenth of those transactions touch a
// warehouse in another city (cross-city 2PC). Order-Status and Stock-Level
// run read-only at the RCP under a staleness bound, as in the paper's
// read-on-replica evaluation. The coordinator's 2PC, the oracle's commit
// wait, the simulated WAN, the WAL and redo shipping do the work; the SQL
// layer and the wire server do none.

const (
	tpccNewOrder = iota
	tpccPayment
	tpccOrderStatus
	tpccStockLevel
)

// tpccMix is New-Order / Payment / Order-Status / Stock-Level, in percent.
// The two read-only transactions are deliberately not equally frequent: with
// equal shares the median read would fall between their two latency modes
// and jump from one to the other between runs.
var tpccMix = []int{35, 35, 20, 10}

const (
	tpccRemotePct     = 10
	tpccReadStaleness = 200 * time.Millisecond
	tpccWarehouses    = 6 // one per shard; two per city
)

type tpccLine struct {
	item, supplyW, qty int64
}

// tpccOp is one pre-generated transaction input.
type tpccOp struct {
	kind    uint8
	w, d, c int64 // warehouse, district, customer
	cw, cd  int64 // Payment: the paying customer's warehouse and district
	amount  float64
	lines   []tpccLine // New-Order
	byName  bool       // Order-Status
}

type tpccWorkload struct {
	cfg  tpcc.Config
	home [numClients]int64   // each terminal's home warehouse
	own  [numClients][]int64 // warehouses only this terminal writes
	ops  [numClients][]tpccOp
}

func (w *tpccWorkload) name() string { return "tpcc_geo" }

// generate assigns each terminal a disjoint set of warehouses — one per
// city, home in a different city per terminal — so the two terminals never
// write the same row and any write-write conflict is a generator bug.
func (w *tpccWorkload) generate(seed int64, sc scale) {
	w.cfg = tpcc.Config{
		Warehouses:               tpccWarehouses,
		Districts:                atLeast(sc.rows(4), 2),
		CustomersPerDistrict:     atLeast(sc.rows(20), 5),
		Items:                    atLeast(sc.rows(50), 20),
		InitialOrdersPerDistrict: atLeast(sc.rows(10), 3),
		// The loader draws order sizes from its seed; a fixed one keeps the
		// loaded data, and so set-up time and live heap, the same for every
		// benchmark seed. The seed varies the transactions.
		Seed: 1,
	}
	byRegion := map[string][]int64{}
	for wh := int64(1); wh <= tpccWarehouses; wh++ {
		r := regionOfKey(wh)
		byRegion[r] = append(byRegion[r], wh)
	}
	for k := 0; k < numClients; k++ {
		w.own[k] = nil
		for _, r := range threeCityRegions {
			w.own[k] = append(w.own[k], byRegion[r][k])
		}
		w.home[k] = byRegion[threeCityRegions[(2*k)%len(threeCityRegions)]][k]
	}
	n := sc.count(4800)
	for k := 0; k < numClients; k++ {
		rng := rand.New(rand.NewSource(seed*1009 + int64(k)))
		kinds := shuffledMix(rng, n, tpccMix)
		// Exactly tpccRemotePct of each kind of write is remote, so every
		// seed runs the same number of cross-city commits.
		perKind := map[uint8]int{}
		for _, k := range kinds {
			perKind[k]++
		}
		remote := map[uint8][]uint8{}
		for _, k := range []uint8{tpccNewOrder, tpccPayment} {
			remote[k] = shuffledMix(rng, perKind[k], []int{100 - tpccRemotePct, tpccRemotePct})
		}
		w.ops[k] = make([]tpccOp, n)
		for i, kind := range kinds {
			isRemote := false
			if flags := remote[kind]; len(flags) > 0 {
				isRemote, remote[kind] = flags[0] == 1, flags[1:]
			}
			w.ops[k][i] = w.genOp(rng, k, kind, isRemote)
		}
	}
}

func (w *tpccWorkload) remoteOf(rng *rand.Rand, k int) int64 {
	for {
		if wh := w.own[k][rng.Intn(len(w.own[k]))]; wh != w.home[k] {
			return wh
		}
	}
}

func (w *tpccWorkload) genOp(rng *rand.Rand, k int, kind uint8, remote bool) tpccOp {
	cfg := w.cfg
	op := tpccOp{
		kind: kind,
		w:    w.home[k],
		d:    int64(1 + rng.Intn(cfg.Districts)),
		c:    int64(1 + rng.Intn(cfg.CustomersPerDistrict)),
	}
	switch kind {
	case tpccNewOrder:
		n := 5 + rng.Intn(11)
		op.lines = make([]tpccLine, n)
		for i := range op.lines {
			op.lines[i] = tpccLine{item: int64(1 + rng.Intn(cfg.Items)), supplyW: op.w, qty: int64(1 + rng.Intn(10))}
		}
		if remote {
			op.lines[rng.Intn(n)].supplyW = w.remoteOf(rng, k)
		}
	case tpccPayment:
		op.cw, op.cd = op.w, op.d
		if remote {
			op.cw, op.cd = w.remoteOf(rng, k), int64(1+rng.Intn(cfg.Districts))
		}
		op.amount = 1 + rng.Float64()*4999
	case tpccOrderStatus:
		// Reads cover every warehouse the terminal owns: the home one is
		// served by the local primary, the others by local replicas.
		op.w = w.own[k][rng.Intn(len(w.own[k]))]
		op.byName = rng.Intn(100) < 60
	case tpccStockLevel:
		op.w = w.own[k][rng.Intn(len(w.own[k]))]
	}
	return op
}

type tpccEnv struct {
	w     *tpccWorkload
	db    *globaldb.DB
	terms []*tpccTerminal
}

func (w *tpccWorkload) setup(ctx context.Context, dir string) (env, error) {
	db, err := globaldb.Open(geoConfig(dir))
	if err != nil {
		return nil, err
	}
	e := &tpccEnv{w: w, db: db}
	loader := tpcc.New(db, w.cfg)
	if err := loader.CreateTables(ctx); err != nil {
		db.Close()
		return nil, err
	}
	if err := loader.Load(ctx); err != nil {
		db.Close()
		return nil, err
	}
	if err := waitRCPCoversLoad(ctx, db); err != nil {
		db.Close()
		return nil, err
	}
	for k := 0; k < numClients; k++ {
		sess, err := db.Connect(regionOfKey(w.home[k]))
		if err != nil {
			db.Close()
			return nil, err
		}
		e.terms = append(e.terms, &tpccTerminal{sess: sess, ops: w.ops[k], histBase: int64(k+1) << 40})
	}
	return e, nil
}

func (e *tpccEnv) database() *globaldb.DB { return e.db }
func (e *tpccEnv) close()                 { e.db.Close() }

func (e *tpccEnv) clients() []client {
	out := make([]client, len(e.terms))
	for i, t := range e.terms {
		out[i] = t
	}
	return out
}

func (e *tpccEnv) replicaReads() (onReplicas, reads int64) {
	for _, t := range e.terms {
		onReplicas += t.onReplicas
		reads += t.reads
	}
	return onReplicas, reads
}

// check verifies the TPC-C cross-table invariants: a lost update or a torn
// multi-row commit breaks d_next_o_id or an order's line count. They are
// the invariants of tpcc.Driver.ConsistencyCheck, which reads every order
// from one city — thousands of WAN round trips after a run — so each
// warehouse is checked from its own city here, all warehouses at once.
func (e *tpccEnv) check(ctx context.Context, _ []int) error {
	errs := make(chan error, e.w.cfg.Warehouses)
	for wh := int64(1); wh <= int64(e.w.cfg.Warehouses); wh++ {
		go func(wh int64) { errs <- e.checkWarehouse(ctx, wh) }(wh)
	}
	var first error
	for i := 0; i < e.w.cfg.Warehouses; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *tpccEnv) checkWarehouse(ctx context.Context, wh int64) error {
	sess, err := e.db.Connect(regionOfKey(wh))
	if err != nil {
		return err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	defer tx.Abort(ctx)
	for d := int64(1); d <= int64(e.w.cfg.Districts); d++ {
		dRow, found, err := tx.Get(ctx, tpcc.TDistrict, []any{wh, d})
		if err != nil || !found {
			return fmt.Errorf("tpcc check: district %d/%d: found=%v err=%v", wh, d, found, err)
		}
		orders, err := tx.ScanPK(ctx, tpcc.TOrders, []any{wh, d}, 0)
		if err != nil {
			return err
		}
		var maxO int64
		for _, o := range orders {
			oid := o[2].(int64)
			if oid > maxO {
				maxO = oid
			}
			lines, err := tx.ScanPK(ctx, tpcc.TOrderLine, []any{wh, d, oid}, 0)
			if err != nil {
				return err
			}
			if int64(len(lines)) != o[5].(int64) {
				return fmt.Errorf("tpcc check: order %d/%d/%d has %d lines, o_ol_cnt=%v", wh, d, oid, len(lines), o[5])
			}
		}
		if next := dRow[5].(int64); maxO != next-1 {
			return fmt.Errorf("tpcc check: district %d/%d next_o_id=%d but max order=%d", wh, d, next, maxO)
		}
	}
	return nil
}

// tpccTerminal is one closed-loop TPC-C terminal.
type tpccTerminal struct {
	sess       *globaldb.Session
	ops        []tpccOp
	histBase   int64 // history keys are disjoint per terminal
	histSeq    int64
	reads      int64
	onReplicas int64
}

func (t *tpccTerminal) numOps() int { return len(t.ops) }

func (t *tpccTerminal) do(ctx context.Context, i int, tr *tracer, stmt int64) (class, error) {
	op := &t.ops[i]
	switch op.kind {
	case tpccNewOrder:
		return classWrite, t.newOrder(ctx, op, tr, stmt)
	case tpccPayment:
		return classWrite, t.payment(ctx, op, tr, stmt)
	default:
		return classRead, t.readOnly(ctx, op, tr, stmt)
	}
}

// tracedTx wraps the typed transaction so every call the terminal makes is
// one span: begin, each row call, commit.
type tracedTx struct {
	tx   *globaldb.Tx
	tr   *tracer
	root int32
	stmt int64
}

func (t *tpccTerminal) begin(ctx context.Context, name string, tr *tracer, stmt int64) (*tracedTx, error) {
	root := tr.begin(name, -1, stmt)
	sp := tr.begin("begin", root, stmt)
	tx, err := t.sess.Begin(ctx)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	return &tracedTx{tx: tx, tr: tr, root: root, stmt: stmt}, nil
}

func (x *tracedTx) get(ctx context.Context, table string, pk ...any) (globaldb.Row, error) {
	sp := x.tr.begin("get:"+table, x.root, x.stmt)
	row, found, err := x.tx.Get(ctx, table, pk)
	x.tr.end(sp)
	if err == nil && !found {
		err = fmt.Errorf("tpcc: %s %v not found", table, pk)
	}
	return row, err
}

func (x *tracedTx) update(ctx context.Context, table string, row globaldb.Row) error {
	sp := x.tr.begin("update:"+table, x.root, x.stmt)
	err := x.tx.Update(ctx, table, row)
	x.tr.end(sp)
	return err
}

func (x *tracedTx) insert(ctx context.Context, table string, row globaldb.Row) error {
	sp := x.tr.begin("insert:"+table, x.root, x.stmt)
	err := x.tx.Insert(ctx, table, row)
	x.tr.end(sp)
	return err
}

// finish commits when the body succeeded and aborts otherwise.
func (x *tracedTx) finish(ctx context.Context, err error) error {
	if err != nil {
		_ = x.tx.Abort(ctx)
		x.tr.end(x.root)
		return err
	}
	sp := x.tr.begin("commit", x.root, x.stmt)
	err = x.tx.Commit(ctx)
	x.tr.end(sp)
	x.tr.end(x.root)
	return err
}

func (t *tpccTerminal) newOrder(ctx context.Context, op *tpccOp, tr *tracer, stmt int64) error {
	x, err := t.begin(ctx, "new_order", tr, stmt)
	if err != nil {
		return err
	}
	return x.finish(ctx, func() error {
		wRow, err := x.get(ctx, tpcc.TWarehouse, op.w)
		if err != nil {
			return err
		}
		dRow, err := x.get(ctx, tpcc.TDistrict, op.w, op.d)
		if err != nil {
			return err
		}
		if _, err := x.get(ctx, tpcc.TCustomer, op.w, op.d, op.c); err != nil {
			return err
		}
		oid := dRow[5].(int64)
		dRow[5] = oid + 1
		if err := x.update(ctx, tpcc.TDistrict, dRow); err != nil {
			return err
		}
		olCnt := int64(len(op.lines))
		if err := x.insert(ctx, tpcc.TOrders, globaldb.Row{op.w, op.d, oid, op.c, int64(0), olCnt, int64(0)}); err != nil {
			return err
		}
		if err := x.insert(ctx, tpcc.TNewOrder, globaldb.Row{op.w, op.d, oid}); err != nil {
			return err
		}
		tax := 1 + wRow[2].(float64) + dRow[3].(float64)
		for n, l := range op.lines {
			iRow, err := x.get(ctx, tpcc.TItem, l.supplyW, l.item)
			if err != nil {
				return err
			}
			sRow, err := x.get(ctx, tpcc.TStock, l.supplyW, l.item)
			if err != nil {
				return err
			}
			if q := sRow[2].(int64); q >= l.qty+10 {
				sRow[2] = q - l.qty
			} else {
				sRow[2] = q - l.qty + 91
			}
			sRow[3] = sRow[3].(int64) + l.qty
			sRow[4] = sRow[4].(int64) + 1
			if l.supplyW != op.w {
				sRow[5] = sRow[5].(int64) + 1
			}
			if err := x.update(ctx, tpcc.TStock, sRow); err != nil {
				return err
			}
			amount := float64(l.qty) * iRow[3].(float64) * tax
			line := globaldb.Row{op.w, op.d, oid, int64(n + 1), l.item, l.supplyW, l.qty, amount}
			if err := x.insert(ctx, tpcc.TOrderLine, line); err != nil {
				return err
			}
		}
		return nil
	}())
}

func (t *tpccTerminal) payment(ctx context.Context, op *tpccOp, tr *tracer, stmt int64) error {
	x, err := t.begin(ctx, "payment", tr, stmt)
	if err != nil {
		return err
	}
	return x.finish(ctx, func() error {
		wRow, err := x.get(ctx, tpcc.TWarehouse, op.w)
		if err != nil {
			return err
		}
		wRow[3] = wRow[3].(float64) + op.amount
		if err := x.update(ctx, tpcc.TWarehouse, wRow); err != nil {
			return err
		}
		dRow, err := x.get(ctx, tpcc.TDistrict, op.w, op.d)
		if err != nil {
			return err
		}
		dRow[4] = dRow[4].(float64) + op.amount
		if err := x.update(ctx, tpcc.TDistrict, dRow); err != nil {
			return err
		}
		cRow, err := x.get(ctx, tpcc.TCustomer, op.cw, op.cd, op.c)
		if err != nil {
			return err
		}
		cRow[5] = cRow[5].(float64) - op.amount
		cRow[6] = cRow[6].(float64) + op.amount
		cRow[7] = cRow[7].(int64) + 1
		if err := x.update(ctx, tpcc.TCustomer, cRow); err != nil {
			return err
		}
		t.histSeq++
		hist := globaldb.Row{op.w, t.histBase + t.histSeq, op.d, op.c, op.amount, "payment"}
		return x.insert(ctx, tpcc.THistory, hist)
	}())
}

// readOnly runs Order-Status or Stock-Level as one read-only query at the
// RCP: every read inside it sees one snapshot.
func (t *tpccTerminal) readOnly(ctx context.Context, op *tpccOp, tr *tracer, stmt int64) error {
	name := "order_status"
	if op.kind == tpccStockLevel {
		name = "stock_level"
	}
	root := tr.begin(name, -1, stmt)
	defer tr.end(root)
	sp := tr.begin("read_only", root, stmt)
	q, err := t.sess.ReadOnly(ctx, tpccReadStaleness,
		tpcc.TCustomer, tpcc.TOrders, tpcc.TOrderLine, tpcc.TDistrict, tpcc.TStock)
	tr.end(sp)
	if err != nil {
		return err
	}
	t.reads++
	if q.OnReplicas() {
		t.onReplicas++
	}
	timed := func(name string, fn func() error) error {
		sp := tr.begin(name, root, stmt)
		err := fn()
		tr.end(sp)
		return err
	}
	if op.kind == tpccOrderStatus {
		return orderStatus(ctx, q, op, timed)
	}
	return stockLevel(ctx, q, op, timed)
}

func orderStatus(ctx context.Context, q *globaldb.Query, op *tpccOp, timed func(string, func() error) error) error {
	cid := op.c
	if op.byName {
		var rows []globaldb.Row
		err := timed("scan_index:customer", func() (err error) {
			rows, err = q.ScanIndex(ctx, tpcc.TCustomer, "customer_name",
				[]any{op.w, op.d, tpcc.LastName(int(op.c) % 1000)}, 0)
			return err
		})
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return fmt.Errorf("tpcc: no customer named %s in %d/%d", tpcc.LastName(int(op.c)%1000), op.w, op.d)
		}
		cid = rows[len(rows)/2][2].(int64)
	} else {
		err := timed("get:customer", func() error {
			_, found, err := q.Get(ctx, tpcc.TCustomer, []any{op.w, op.d, cid})
			if err == nil && !found {
				err = fmt.Errorf("tpcc: customer %d/%d/%d not found", op.w, op.d, cid)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	var orders []globaldb.Row
	err := timed("scan_index:orders", func() (err error) {
		orders, err = q.ScanIndex(ctx, tpcc.TOrders, "orders_customer", []any{op.w, op.d, cid}, 0)
		return err
	})
	if err != nil || len(orders) == 0 {
		return err
	}
	last := orders[len(orders)-1]
	return timed("scan_pk:order_line", func() error {
		lines, err := q.ScanPK(ctx, tpcc.TOrderLine, []any{op.w, op.d, last[2].(int64)}, 0)
		if err == nil && int64(len(lines)) != last[5].(int64) {
			// Both come from one snapshot, so a mismatch is a torn read.
			err = fmt.Errorf("tpcc: order %v has %d lines at the snapshot, o_ol_cnt=%v", last[2], len(lines), last[5])
		}
		return err
	})
}

func stockLevel(ctx context.Context, q *globaldb.Query, op *tpccOp, timed func(string, func() error) error) error {
	var nextO int64
	err := timed("get:district", func() error {
		dRow, found, err := q.Get(ctx, tpcc.TDistrict, []any{op.w, op.d})
		if err == nil && !found {
			err = fmt.Errorf("tpcc: district %d/%d not found", op.w, op.d)
		}
		if err == nil {
			nextO = dRow[5].(int64)
		}
		return err
	})
	if err != nil {
		return err
	}
	lowO := nextO - 20
	if lowO < 1 {
		lowO = 1
	}
	seen := map[int64]bool{}
	for oid := lowO; oid < nextO; oid++ {
		var lines []globaldb.Row
		err := timed("scan_pk:order_line", func() (err error) {
			lines, err = q.ScanPK(ctx, tpcc.TOrderLine, []any{op.w, op.d, oid}, 0)
			return err
		})
		if err != nil {
			return err
		}
		if len(lines) == 0 {
			return fmt.Errorf("tpcc: order %d/%d/%d below d_next_o_id has no lines at the snapshot", op.w, op.d, oid)
		}
		for _, l := range lines {
			item, supplyW := l[4].(int64), l[5].(int64)
			if seen[item] {
				continue
			}
			seen[item] = true
			err := timed("get:stock", func() error {
				_, _, err := q.Get(ctx, tpcc.TStock, []any{supplyW, item})
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
