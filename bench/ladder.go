package main

import (
	"context"
	"database/sql"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"globaldb"
	"globaldb/gsql"
	"globaldb/gsql/fragment"
	"globaldb/internal/coordinator"
	"globaldb/internal/datanode"
	"globaldb/internal/keys"
	"globaldb/internal/stats"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
	"globaldb/server"
)

// The layer ladder. On a quiet cluster with one caller, each canonical
// statement is timed at successive public entry points going down the
// stack; a layer's self time is its rung minus the rung below. Everything
// is measured from outside the program, so the ladder needs no spans inside
// it and costs the end-to-end runs nothing.

// ladderLayers are the rungs from the top; each names the package whose
// cost the rung adds over the one below.
var ladderLayers = []string{"server", "gsql", "globaldb", "coordinator", "datanode", "mvcc"}

var ladderStatements = []string{
	"point_get", "filtered_scan", "pushed_agg", "lookup_join", "commit_1shard", "commit_2shard", "replica_get",
}

const (
	ladderWarehouses   = scanWarehouses
	ladderPerWarehouse = 250
	ladderWriteKeys    = 20 // keys each write rung owns, so rungs never conflict
	ladderMinIters     = 6
	ladderMaxIters     = 400 // rounds per statement; also bounds the span file
	ladderSQLPoint     = "SELECT qty, price, tag FROM items WHERE w_id = ? AND i_id = ?"
	ladderSQLFiltered  = "SELECT i_id, qty FROM items WHERE qty >= 90"
	ladderSQLAgg       = "SELECT tag, COUNT(*), SUM(qty) FROM items GROUP BY tag"
	ladderSQLJoin      = "SELECT i.i_id, w.name FROM items i JOIN warehouses w ON w.w_id = i.w_id WHERE i.qty >= 90"
	ladderSQLUpdate    = "UPDATE items SET price = ? WHERE w_id = ? AND i_id = ?"
	ladderGeoCity      = "dongguan" // where the WAN rung's caller sits
)

// ladderPointWarehouses have their primaries outside ladderGeoCity on the
// three-city cluster, so the WAN rung's point statements cross the WAN; the
// zero-RTT cluster uses the same keys.
var ladderPointWarehouses = []int64{1, 2, 5, 6, 7}

// ladderPair are two warehouses on different shards, in two cities other
// than the caller's, for the cross-shard commit.
var ladderPair = [2]int64{1, 5}

// rung is one timed entry point.
type rung func(ctx context.Context, it int) error

// ladderCluster is one loaded cluster with everything the rungs need
// resolved up front, so a rung times only the call into its layer.
type ladderCluster struct {
	db      *globaldb.DB
	city    string // the caller's region
	items   *table.Schema
	wh      *table.Schema
	sess    *globaldb.Session
	sql     *gsql.Session
	sqlRO   *gsql.Session
	stmts   map[string]*gsql.Stmt
	stmtsRO *gsql.Stmt

	srv              *server.Server
	pool, poolRO     *sql.DB
	conn, connRO     *sql.Conn
	wire             map[string]*sql.Stmt
	wireRO           *sql.Stmt
	frags            map[string]*fragment.Fragment
	encoded          map[string][]byte
	start, end       []byte
	clients          []*datanode.Client // per shard, dialled from the primary's own region
	replicaClients   []*datanode.Client
	clones, replicas []*mvcc.Store
	fakeTxn          atomic.Uint64
	lastTS           ts.Timestamp
}

// openLadderCluster opens and loads one cluster. withServer adds the TCP
// front door (only the zero-RTT ladder has that rung).
func openLadderCluster(ctx context.Context, cfg globaldb.Config, city string, withServer bool) (*ladderCluster, error) {
	db, err := globaldb.Open(cfg)
	if err != nil {
		return nil, err
	}
	l := &ladderCluster{db: db, city: city}
	if err := l.load(ctx); err != nil {
		l.close()
		return nil, err
	}
	if err := l.connect(ctx, withServer); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *ladderCluster) load(ctx context.Context) error {
	if err := loadItems(ctx, l.db, ladderPerWarehouse); err != nil {
		return err
	}
	return waitRCPCoversLoad(ctx, l.db)
}

func (l *ladderCluster) connect(ctx context.Context, withServer bool) error {
	var err error
	if l.items, err = l.db.Schema("items"); err != nil {
		return err
	}
	if l.wh, err = l.db.Schema("warehouses"); err != nil {
		return err
	}
	if l.sess, err = l.db.Connect(l.city); err != nil {
		return err
	}
	if l.sql, err = gsql.Connect(l.db, l.city); err != nil {
		return err
	}
	if l.sqlRO, err = gsql.Connect(l.db, l.city); err != nil {
		return err
	}
	if _, err = l.sqlRO.Exec(ctx, "SET STALENESS = ANY"); err != nil {
		return err
	}
	l.stmts = map[string]*gsql.Stmt{}
	for _, text := range []string{ladderSQLPoint, ladderSQLFiltered, ladderSQLAgg, ladderSQLJoin, ladderSQLUpdate} {
		if l.stmts[text], err = l.sql.Prepare(ctx, text); err != nil {
			return err
		}
	}
	if l.stmtsRO, err = l.sqlRO.Prepare(ctx, ladderSQLPoint); err != nil {
		return err
	}
	if withServer {
		if err := l.connectWire(ctx); err != nil {
			return err
		}
	}

	// The fragments the SQL planner builds for the three scan statements,
	// written out by hand so the typed rung does the same data-node work.
	kinds := make([]table.Kind, len(l.items.Columns))
	for i, c := range l.items.Columns {
		kinds[i] = c.Kind
	}
	whKinds := make([]table.Kind, len(l.wh.Columns))
	for i, c := range l.wh.Columns {
		whKinds[i] = c.Kind
	}
	qtyGE90 := &fragment.Expr{Op: fragment.OpGe, Args: []fragment.Expr{
		{Op: fragment.OpCol, Col: 2}, {Op: fragment.OpConst, Val: int64(90)}}}
	l.frags = map[string]*fragment.Fragment{
		"filtered_scan": {Kinds: kinds, Filter: qtyGE90, Project: []int{1, 2}},
		"pushed_agg": {Kinds: kinds, GroupBy: []int{5}, Aggs: []fragment.AggSpec{
			{Kind: fragment.AggCount, Star: true},
			{Kind: fragment.AggSum, Arg: &fragment.Expr{Op: fragment.OpCol, Col: 2}}}},
		"lookup_join": {Kinds: kinds, Filter: qtyGE90, Project: []int{1}, Lookup: &fragment.Lookup{
			Prefix:   l.wh.TablePrefix(),
			KeyExprs: []fragment.Expr{{Op: fragment.OpCol, Col: 0}},
			KeyKinds: []table.Kind{table.Int64},
			Kinds:    whKinds,
			Project:  []int{1}}},
	}
	l.encoded = map[string][]byte{}
	for name, f := range l.frags {
		if l.encoded[name], err = f.Encode(); err != nil {
			return err
		}
	}
	l.start = l.items.TablePrefix()
	l.end = keys.PrefixEnd(l.start)

	c := l.db.Cluster()
	for shard, p := range c.Primaries() {
		l.clients = append(l.clients, datanode.NewClient(c.Net, p.Region()))
		l.clones = append(l.clones, p.Store().Clone())
		rep := c.Replicas(shard)[0]
		l.replicaClients = append(l.replicaClients, datanode.NewClient(c.Net, rep.Region()))
		l.replicas = append(l.replicas, rep.Applier().Store().Clone())
	}
	return nil
}

func (l *ladderCluster) connectWire(ctx context.Context) error {
	l.srv = server.New(l.db, server.Options{Region: l.city})
	if err := l.srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	open := func(opts string) (*sql.DB, *sql.Conn, error) {
		pool, err := sql.Open("globaldb", fmt.Sprintf("tcp://%s?region=%s&maxconns=1%s", l.srv.Addr(), l.city, opts))
		if err != nil {
			return nil, nil, err
		}
		conn, err := pool.Conn(ctx)
		if err != nil {
			pool.Close()
			return nil, nil, err
		}
		return pool, conn, nil
	}
	var err error
	if l.pool, l.conn, err = open(""); err != nil {
		return err
	}
	if l.poolRO, l.connRO, err = open("&staleness=any"); err != nil {
		return err
	}
	l.wire = map[string]*sql.Stmt{}
	for _, text := range []string{ladderSQLPoint, ladderSQLFiltered, ladderSQLAgg, ladderSQLJoin, ladderSQLUpdate} {
		if l.wire[text], err = l.conn.PrepareContext(ctx, text); err != nil {
			return err
		}
	}
	l.wireRO, err = l.connRO.PrepareContext(ctx, ladderSQLPoint)
	return err
}

func (l *ladderCluster) close() {
	for _, c := range []*sql.Conn{l.conn, l.connRO} {
		if c != nil {
			c.Close()
		}
	}
	for _, p := range []*sql.DB{l.pool, l.poolRO} {
		if p != nil {
			p.Close()
		}
	}
	if l.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = l.srv.Shutdown(ctx)
		cancel()
	}
	l.db.Close()
}

// pointKey picks iteration it's row among the warehouses whose primaries
// are away from the WAN caller.
func pointKey(it int) (w, i int64) {
	return ladderPointWarehouses[it%len(ladderPointWarehouses)], int64(1 + it%ladderPerWarehouse)
}

// writeKey picks a row owned by write slot slot (one slot per rung).
func writeKey(slot, it int) int64 { return int64(slot*ladderWriteKeys + 1 + it%ladderWriteKeys) }

func (l *ladderCluster) shardOf(w int64) int { return l.db.Cluster().ShardOf(w) }

func (l *ladderCluster) pk(w, i int64) []byte {
	k, err := l.items.PrimaryKeyFromValues([]any{w, i})
	if err != nil {
		panic(err) // the schema is the harness's own
	}
	return k
}

// now returns a snapshot timestamp for rungs below the oracle: wall-clock
// nanoseconds (what GClock issues), kept strictly increasing.
func (l *ladderCluster) now() ts.Timestamp {
	t := ts.FromTime(time.Now())
	if t <= l.lastTS {
		t = l.lastTS + 1
	}
	l.lastTS = t
	return t
}

func drainGsql(r *gsql.Rows, err error) error {
	if err != nil {
		return err
	}
	for r.Next() {
	}
	if err := r.Err(); err != nil {
		r.Close()
		return err
	}
	return r.Close()
}

func drainWire(r *sql.Rows, err error) error {
	if err != nil {
		return err
	}
	for r.Next() {
	}
	if err := r.Err(); err != nil {
		r.Close()
		return err
	}
	return r.Close()
}

func drainTyped(r *globaldb.Rows, err error) error {
	if err != nil {
		return err
	}
	for r.NextBatch() {
	}
	if err := r.Err(); err != nil {
		r.Close()
		return err
	}
	return r.Close()
}

func drainCursor(ctx context.Context, c coordinator.BatchCursor) error {
	for c.NextBatch(ctx) {
	}
	err := c.Err()
	c.Close()
	return err
}

// eachShard runs fn on every shard at once, as the coordinator's cursors do,
// so the rungs below it stay comparable with it on a two-core box.
func (l *ladderCluster) eachShard(fn func(shard int) error) error {
	n := l.db.Cluster().Shards()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rungs returns the six entry points of one statement, top first. A nil
// entry means the cluster has no such rung (no wire server).
func (l *ladderCluster) rungs(stmt string) []rung {
	switch stmt {
	case "point_get":
		return l.pointRungs(false)
	case "replica_get":
		return l.pointRungs(true)
	case "filtered_scan", "pushed_agg", "lookup_join":
		return l.scanRungs(stmt)
	case "commit_1shard":
		return l.commitRungs(0, ladderPair[:1])
	default:
		return l.commitRungs(1, ladderPair[:])
	}
}

func (l *ladderCluster) pointRungs(replica bool) []rung {
	c := l.db.Cluster()
	cn := l.sess.CN()
	wireSt, sqlSt := l.wire[ladderSQLPoint], l.stmts[ladderSQLPoint]
	if replica {
		wireSt, sqlSt = l.wireRO, l.stmtsRO
	}
	var top rung
	if l.srv != nil {
		top = func(ctx context.Context, it int) error {
			w, i := pointKey(it)
			var (
				qty   int64
				price float64
				tag   string
			)
			return wireSt.QueryRowContext(ctx, w, i).Scan(&qty, &price, &tag)
		}
	}
	return []rung{
		top,
		func(ctx context.Context, it int) error {
			w, i := pointKey(it)
			return drainGsql(sqlSt.Query(ctx, w, i))
		},
		func(ctx context.Context, it int) error {
			w, i := pointKey(it)
			if replica {
				q, err := l.sess.ReadOnly(ctx, globaldb.AnyStaleness, "items")
				if err != nil {
					return err
				}
				_, _, err = q.Get(ctx, "items", []any{w, i})
				return err
			}
			tx, err := l.sess.Begin(ctx)
			if err != nil {
				return err
			}
			if _, _, err := tx.Get(ctx, "items", []any{w, i}); err != nil {
				return err
			}
			return tx.Commit(ctx)
		},
		func(ctx context.Context, it int) error {
			w, i := pointKey(it)
			key, shard := l.pk(w, i), l.shardOf(w)
			if replica {
				ro, err := cn.ReadOnly(ctx, coordinator.AnyStaleness, l.items.ID)
				if err != nil {
					return err
				}
				_, _, err = ro.Get(ctx, shard, key)
				return err
			}
			t, err := cn.Begin(ctx)
			if err != nil {
				return err
			}
			if _, _, err := t.Get(ctx, shard, key); err != nil {
				return err
			}
			return t.Commit(ctx)
		},
		func(ctx context.Context, it int) error {
			w, i := pointKey(it)
			key, shard := l.pk(w, i), l.shardOf(w)
			if replica {
				_, _, err := l.replicaClients[shard].Read(ctx, c.Replicas(shard)[0].ID(), key, c.Collector.RCP(), 0)
				return err
			}
			_, _, err := l.clients[shard].Read(ctx, c.Primaries()[shard].ID(), key, l.now(), 0)
			return err
		},
		func(ctx context.Context, it int) error {
			w, i := pointKey(it)
			key, shard := l.pk(w, i), l.shardOf(w)
			if replica {
				_, _, err := l.replicas[shard].Get(ctx, key, c.Collector.RCP(), 0)
				return err
			}
			_, _, err := l.clones[shard].Get(ctx, key, l.now(), 0)
			return err
		},
	}
}

func (l *ladderCluster) scanRungs(stmt string) []rung {
	c := l.db.Cluster()
	cn := l.sess.CN()
	text := map[string]string{"filtered_scan": ladderSQLFiltered, "pushed_agg": ladderSQLAgg, "lookup_join": ladderSQLJoin}[stmt]
	frag, enc := l.frags[stmt], l.encoded[stmt]
	// The storage rung of the lookup join reads the warehouse row once per
	// surviving item, as the data node does.
	lookups := 0
	if stmt == "lookup_join" {
		for i := 1; i <= ladderPerWarehouse; i++ {
			if scanQty(i) >= 90 {
				lookups++
			}
		}
	}
	whKeys := map[int][][]byte{}
	for w := int64(1); w <= ladderWarehouses; w++ {
		k, _ := l.wh.PrimaryKeyFromValues([]any{w})
		whKeys[l.shardOf(w)] = append(whKeys[l.shardOf(w)], k)
	}
	var top rung
	if l.srv != nil {
		top = func(ctx context.Context, _ int) error { return drainWire(l.wire[text].QueryContext(ctx)) }
	}
	return []rung{
		top,
		func(ctx context.Context, _ int) error { return drainGsql(l.stmts[text].Query(ctx)) },
		func(ctx context.Context, _ int) error {
			tx, err := l.sess.Begin(ctx)
			if err != nil {
				return err
			}
			if err := drainTyped(tx.ScanTableRows(ctx, "items", globaldb.ScanOpts{Pushdown: frag})); err != nil {
				return err
			}
			return tx.Commit(ctx)
		},
		func(ctx context.Context, _ int) error {
			t, err := cn.Begin(ctx)
			if err != nil {
				return err
			}
			var cur coordinator.BatchCursor = coordinator.MergeCursors(
				t.ScanCursors(ctx, c.Shards(), coordinator.ScanSpec{Start: l.start, End: l.end, Frag: enc, Counters: &stats.ScanCounters{}})...)
			if frag.HasAggs() {
				cur = coordinator.MergeAggregates(cur, fragment.MergeEncodedStates)
			}
			if err := drainCursor(ctx, cur); err != nil {
				return err
			}
			return t.Commit(ctx)
		},
		func(ctx context.Context, _ int) error {
			snap := l.now()
			return l.eachShard(func(shard int) error {
				from := l.start
				for {
					resp, err := l.clients[shard].ScanPageFrag(ctx, c.Primaries()[shard].ID(), from, l.end, snap, 0, 0, enc, 0)
					if err != nil || !resp.More {
						return err
					}
					from = resp.Next
				}
			})
		},
		func(ctx context.Context, _ int) error {
			snap := l.now()
			return l.eachShard(func(shard int) error {
				from := l.start
				for {
					_, next, more, err := l.clones[shard].ScanPage(ctx, from, l.end, snap, datanode.DefaultScanPageSize, 0)
					if err != nil {
						return err
					}
					if !more {
						break
					}
					from = next
				}
				for _, k := range whKeys[shard] {
					for n := 0; n < lookups; n++ {
						if _, _, err := l.clones[shard].Get(ctx, k, snap, 0); err != nil {
							return err
						}
					}
				}
				return nil
			})
		},
	}
}

// commitRungs writes one row in each of the given warehouses (one: the
// single-shard fast path; two on different shards: 2PC) and commits. which
// numbers the statement, so the two statements' rungs own different keys.
func (l *ladderCluster) commitRungs(which int, warehouses []int64) []rung {
	c := l.db.Cluster()
	cn := l.sess.CN()
	twoPC := len(warehouses) > 1
	price := func(it int) float64 { return float64(it%1000) + 0.25 }
	rowVal := func(w, i int64, it int) []byte {
		r := itemRow(w, i)
		r[4] = price(it)
		v, err := l.items.EncodeRow(r)
		if err != nil {
			panic(err)
		}
		return v
	}
	keyOf := func(r, it int) int64 { return writeKey(which*len(ladderLayers)+r, it) }

	var top rung
	if l.srv != nil {
		st := l.wire[ladderSQLUpdate]
		top = func(ctx context.Context, it int) error {
			i := keyOf(0, it)
			if !twoPC {
				_, err := st.ExecContext(ctx, price(it), warehouses[0], i)
				return err
			}
			tx, err := l.conn.BeginTx(ctx, nil)
			if err != nil {
				return err
			}
			for _, w := range warehouses {
				if _, err := tx.StmtContext(ctx, st).ExecContext(ctx, price(it), w, i); err != nil {
					_ = tx.Rollback()
					return err
				}
			}
			return tx.Commit()
		}
	}
	return []rung{
		top,
		func(ctx context.Context, it int) error {
			i, st := keyOf(1, it), l.stmts[ladderSQLUpdate]
			if !twoPC {
				_, err := st.Exec(ctx, price(it), warehouses[0], i)
				return err
			}
			if _, err := l.sql.Exec(ctx, "BEGIN"); err != nil {
				return err
			}
			for _, w := range warehouses {
				if _, err := st.Exec(ctx, price(it), w, i); err != nil {
					_, _ = l.sql.Exec(ctx, "ROLLBACK")
					return err
				}
			}
			_, err := l.sql.Exec(ctx, "COMMIT")
			return err
		},
		func(ctx context.Context, it int) error {
			i := keyOf(2, it)
			tx, err := l.sess.Begin(ctx)
			if err != nil {
				return err
			}
			for _, w := range warehouses {
				row, found, err := tx.Get(ctx, "items", []any{w, i})
				if err != nil || !found {
					_ = tx.Abort(ctx)
					return fmt.Errorf("ladder: item %d/%d: found=%v err=%v", w, i, found, err)
				}
				row[4] = price(it)
				if err := tx.Update(ctx, "items", row); err != nil {
					_ = tx.Abort(ctx)
					return err
				}
			}
			return tx.Commit(ctx)
		},
		func(ctx context.Context, it int) error {
			i := keyOf(3, it)
			t, err := cn.Begin(ctx)
			if err != nil {
				return err
			}
			for _, w := range warehouses {
				key, shard := l.pk(w, i), l.shardOf(w)
				if _, _, err := t.Get(ctx, shard, key); err != nil {
					_ = t.Abort(ctx)
					return err
				}
				if err := t.Put(ctx, shard, key, rowVal(w, i, it)); err != nil {
					_ = t.Abort(ctx)
					return err
				}
			}
			return t.Commit(ctx)
		},
		func(ctx context.Context, it int) error {
			i := keyOf(4, it)
			txn := 0xFFFF<<40 | l.fakeTxn.Add(1)
			snap := l.now()
			for _, w := range warehouses {
				key, shard := l.pk(w, i), l.shardOf(w)
				node := c.Primaries()[shard].ID()
				if _, _, err := l.clients[shard].Read(ctx, node, key, snap, txn); err != nil {
					return err
				}
				op := datanode.WriteOp{Key: key, Value: rowVal(w, i, it)}
				if err := l.clients[shard].Write(ctx, node, txn, snap, []datanode.WriteOp{op}); err != nil {
					return err
				}
			}
			if !twoPC {
				shard := l.shardOf(warehouses[0])
				node := c.Primaries()[shard].ID()
				if err := l.clients[shard].Pending(ctx, node, txn); err != nil {
					return err
				}
				return l.clients[shard].Commit(ctx, node, txn, l.now(), false)
			}
			shards := []int{l.shardOf(warehouses[0]), l.shardOf(warehouses[1])}
			sort.Ints(shards)
			anchor := c.Primaries()[shards[0]].ID()
			var wg sync.WaitGroup
			errs := make([]error, len(shards))
			for n, shard := range shards {
				wg.Add(1)
				go func(n, shard int) {
					defer wg.Done()
					errs[n] = l.clients[shard].Prepare(ctx, c.Primaries()[shard].ID(), txn, anchor)
				}(n, shard)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			commitTS := l.now()
			for _, shard := range shards {
				if err := l.clients[shard].CommitPrepared(ctx, c.Primaries()[shard].ID(), txn, commitTS, false); err != nil {
					return err
				}
			}
			return nil
		},
		func(ctx context.Context, it int) error {
			i := keyOf(5, it)
			txn := mvcc.TxnID(0xFFFE<<40 | l.fakeTxn.Add(1))
			snap := l.now()
			for _, w := range warehouses {
				key, store := l.pk(w, i), l.clones[l.shardOf(w)]
				if _, _, err := store.Get(ctx, key, snap, txn); err != nil {
					return err
				}
				if err := store.Put(txn, key, rowVal(w, i, it), snap); err != nil {
					return err
				}
			}
			for _, w := range warehouses {
				store := l.clones[l.shardOf(w)]
				var err error
				if twoPC {
					err = store.MarkPrepared(txn)
				} else {
					err = store.MarkPending(txn)
				}
				if err != nil {
					return err
				}
			}
			commitTS := l.now()
			for _, w := range warehouses {
				if err := l.clones[l.shardOf(w)].Commit(txn, commitTS); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// ladderResult holds the median time of every rung that was measured, in
// microseconds, by statement then layer.
type ladderResult struct {
	local map[string]map[string]float64 // zero-RTT cluster, all rungs
	geo   map[string]float64            // three-city cluster, typed rung from a remote city
}

// timeRungs measures the given rungs of one statement for budget in total
// and returns each rung's median iteration time in microseconds. The rungs
// take turns — one iteration each per round — so that drift during the
// measurement (a collection, a busy neighbour) reaches all of them alike and
// cancels in their differences. Every iteration is a span under root.
func timeRungs(ctx context.Context, fns []rung, names []string, budget time.Duration, tr *tracer, root int32, stmtID int64) ([]float64, error) {
	for r, fn := range fns {
		for it := 0; it < 2; it++ { // untimed: lazy set-up, caches
			if err := fn(ctx, it); err != nil {
				return nil, fmt.Errorf("%s: %w", names[r], err)
			}
		}
	}
	durs := make([][]float64, len(fns))
	t0 := time.Now()
	for it := 0; it < ladderMaxIters && (it < ladderMinIters || time.Since(t0) < budget); it++ {
		for r, fn := range fns {
			sp := tr.begin(names[r], root, stmtID)
			start := time.Now()
			err := fn(ctx, it+2)
			d := time.Since(start)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", names[r], err)
			}
			durs[r] = append(durs[r], float64(d)/float64(time.Microsecond))
		}
	}
	out := make([]float64, len(fns))
	for r := range durs {
		out[r] = median(durs[r])
	}
	return out, nil
}

// runLadder measures every statement at every rung on the zero-RTT cluster
// and the typed rung from a remote city on the three-city cluster.
func runLadder(ctx context.Context, budget time.Duration, tr *tracer) (ladderResult, error) {
	res := ladderResult{local: map[string]map[string]float64{}, geo: map[string]float64{}}
	// The three-city rung waits for the WAN, so it needs fewer iterations
	// for a steady median than the CPU-bound rungs need to resolve their
	// small differences.
	perLocal := budget * 3 / 4 / time.Duration(len(ladderStatements))
	perGeo := budget / 4 / time.Duration(len(ladderStatements))

	local, err := openLadderCluster(ctx, localConfig(), globaldb.OneRegion(0).Regions[0], true)
	if err != nil {
		return res, fmt.Errorf("ladder: zero-RTT cluster: %w", err)
	}
	for s, stmt := range ladderStatements {
		names := make([]string, len(ladderLayers))
		for r, layer := range ladderLayers {
			names[r] = stmt + "/" + layer
		}
		root := tr.begin("ladder:"+stmt+"@zero-rtt", -1, int64(s))
		us, err := timeRungs(ctx, local.rungs(stmt), names, perLocal, tr, root, int64(s))
		tr.end(root)
		if err != nil {
			local.close()
			return res, err
		}
		res.local[stmt] = map[string]float64{}
		for r, layer := range ladderLayers {
			res.local[stmt][layer] = us[r]
		}
	}
	local.close()

	geo, err := openLadderCluster(ctx, geoConfig(""), ladderGeoCity, false)
	if err != nil {
		return res, fmt.Errorf("ladder: three-city cluster: %w", err)
	}
	defer geo.close()
	const typed = 2 // index of the globaldb rung
	for s, stmt := range ladderStatements {
		id := int64(len(ladderStatements) + s)
		root := tr.begin("ladder:"+stmt+"@three-city", -1, id)
		us, err := timeRungs(ctx, geo.rungs(stmt)[typed:typed+1], []string{stmt + "/globaldb@" + ladderGeoCity}, perGeo, tr, root, id)
		tr.end(root)
		if err != nil {
			return res, err
		}
		res.geo[stmt] = us[0]
	}
	return res, nil
}

// selfTimes turns rung times into per-layer self times: each rung minus the
// rung below it, the bottom rung as it is. A negative difference (a lower
// rung that measured slower than the one above, which only noise produces)
// is reported as 0.
func selfTimes(rungs map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for i, layer := range ladderLayers {
		self := rungs[layer]
		if i+1 < len(ladderLayers) {
			self -= rungs[ladderLayers[i+1]]
		}
		if self < 0 {
			self = 0
		}
		out[layer] = self
	}
	return out
}

// metrics names the ladder's numbers: <layer>.self_us.<stmt>, the top rung
// as ladder.top_us.<stmt>, and netsim.wan_ms.<stmt> — the typed rung from a
// remote city minus the same rung at zero RTT.
func (r ladderResult) metrics() map[string]metricValue {
	m := map[string]metricValue{}
	for _, stmt := range ladderStatements {
		for layer, us := range selfTimes(r.local[stmt]) {
			m[layer+".self_us."+stmt] = metricValue{us, "us"}
		}
		m["ladder.top_us."+stmt] = metricValue{r.local[stmt][ladderLayers[0]], "us"}
		wan := (r.geo[stmt] - r.local[stmt]["globaldb"]) / 1000
		if wan < 0 {
			wan = 0
		}
		m["netsim.wan_ms."+stmt] = metricValue{wan, "ms"}
	}
	return m
}

// print writes the statement x layer table.
func (r ladderResult) print(out io.Writer) {
	fmt.Fprintf(out, "layer ladder, zero-RTT cluster: self time per layer in us (rung minus the rung below; median of iterations)\n")
	fmt.Fprintf(out, "  %-14s", "statement")
	for _, l := range ladderLayers {
		fmt.Fprintf(out, " %11s", l)
	}
	fmt.Fprintf(out, " %11s %8s\n", "top rung", "sum/top")
	for _, stmt := range ladderStatements {
		fmt.Fprintf(out, "  %-14s", stmt)
		self, sum := selfTimes(r.local[stmt]), 0.0
		for _, l := range ladderLayers {
			fmt.Fprintf(out, " %11.1f", self[l])
			sum += self[l]
		}
		top := r.local[stmt][ladderLayers[0]]
		fmt.Fprintf(out, " %11.1f %8.2f\n", top, ratio(sum, top))
	}
	fmt.Fprintf(out, "layer ladder, three-city cluster: typed API from %s, in ms (other rungs not measured here: their cost is the zero-RTT one)\n", ladderGeoCity)
	fmt.Fprintf(out, "  %-14s %11s %11s %11s\n", "statement", "three-city", "zero-RTT", "netsim.wan")
	for _, stmt := range ladderStatements {
		fmt.Fprintf(out, "  %-14s %11.3f %11.3f %11.3f\n", stmt, r.geo[stmt]/1000, r.local[stmt]["globaldb"]/1000,
			(r.geo[stmt]-r.local[stmt]["globaldb"])/1000)
	}
}
