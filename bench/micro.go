package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"globaldb"
	"globaldb/gsql"
	"globaldb/gsql/fragment"
	"globaldb/internal/gtm"
	"globaldb/internal/keys"
	"globaldb/internal/netsim"
	"globaldb/internal/rcp"
	"globaldb/internal/redo"
	"globaldb/internal/repl"
	"globaldb/internal/ror"
	"globaldb/internal/storage/btree"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
	"globaldb/internal/wal"
	"globaldb/server/wire"
)

// Micro probes: hot loops the ladder cannot isolate, called directly and
// fed with rows, keys, fragments and SQL text taken from the workloads.
// Each reports the median over batches of the time per call (or per row,
// column, record, KB — the unit is in the name).

const microRows = 256 // one data-node page

// microProbe is one probe: name, unit and a function that measures it
// within the budget.
type microProbe struct {
	name, unit string
	run        func(ctx context.Context, m *microEnv, budget time.Duration) (float64, error)
}

// microEnv is the shared input of the probes.
type microEnv struct {
	dir     string
	items   *table.Schema
	rows    []table.Row
	vals    [][]byte // encoded row values
	pks     [][]byte // encoded primary keys
	filter  *fragment.Fragment
	recs    []redo.Record
	cluster *ladderCluster // small zero-RTT cluster for the probes that need live nodes
}

// timeBatches calls fn in batches of batch calls until the budget is used
// (at least five batches) and returns the median time per call in ns.
func timeBatches(budget time.Duration, batch int, fn func()) float64 {
	var per []float64
	t0 := time.Now()
	for len(per) < 5 || time.Since(t0) < budget {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(batch))
		if len(per) >= 10000 {
			break
		}
	}
	return median(per)
}

func newMicroEnv(ctx context.Context, dir string) (*microEnv, error) {
	cl, err := openLadderCluster(ctx, localConfig(), globaldb.OneRegion(0).Regions[0], false)
	if err != nil {
		return nil, err
	}
	m := &microEnv{dir: dir, cluster: cl, items: cl.items, filter: cl.frags["filtered_scan"]}
	for i := int64(1); i <= microRows; i++ {
		r := table.Row(itemRow(1+i%ladderWarehouses, i))
		v, err := m.items.EncodeRow(r)
		if err != nil {
			return nil, err
		}
		m.rows = append(m.rows, r)
		m.vals = append(m.vals, v)
		m.pks = append(m.pks, cl.pk(1+i%ladderWarehouses, i))
	}
	// One transaction's redo: the row writes of a New-Order-sized commit.
	for i := range m.vals[:12] {
		m.recs = append(m.recs, redo.Record{Type: redo.TypeHeapUpdate, Txn: 7, Key: m.pks[i], Value: m.vals[i]})
	}
	m.recs = append(m.recs, redo.Record{Type: redo.TypePendingCommit, Txn: 7},
		redo.Record{Type: redo.TypeCommit, Txn: 7, TS: ts.FromTime(time.Now())})
	return m, nil
}

func (m *microEnv) close() { m.cluster.close() }

// batchOfRows decodes the probe rows into one RowBatch.
func (m *microEnv) batchOfRows(a *fragment.Arena) (*fragment.RowBatch, error) {
	b := a.NewBatch(m.filter.Kinds, len(m.vals))
	for _, v := range m.vals {
		if err := b.AppendStored(v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

var microProbes = []microProbe{
	{"keys.encode_ns_per_col", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		e := keys.NewEncoder(64)
		ns := timeBatches(d, 64, func() {
			for _, r := range m.rows {
				e.Reset()
				e.Int64(r[0].(int64)).Int64(r[1].(int64)).Int64(r[2].(int64)).Float64(r[4].(float64)).String(r[5].(string))
			}
		})
		return ns / float64(len(m.rows)*5), nil
	}},
	{"keys.decode_ns_per_col", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var dec keys.Decoder
		var err error
		ns := timeBatches(d, 64, func() {
			for _, v := range m.vals {
				dec.Reset(v)
				for c := 0; c < 3 && err == nil; c++ {
					_, err = dec.Int64()
				}
			}
		})
		return ns / float64(len(m.vals)*3), err
	}},
	{"keys.skip_ns_per_col", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var dec keys.Decoder
		var err error
		cols := len(m.items.Columns)
		ns := timeBatches(d, 64, func() {
			for _, v := range m.vals {
				dec.Reset(v)
				for c := 0; c < cols && err == nil; c++ {
					err = dec.Skip()
				}
			}
		})
		return ns / float64(len(m.vals)*cols), err
	}},
	{"table.encode_row_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var err error
		ns := timeBatches(d, 8, func() {
			for _, r := range m.rows {
				if _, e := m.items.EncodeRow(r); e != nil {
					err = e
				}
			}
		})
		return ns / float64(len(m.rows)), err
	}},
	{"table.decode_row_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var err error
		ns := timeBatches(d, 8, func() {
			for _, v := range m.vals {
				if _, e := m.items.DecodeRow(v); e != nil {
					err = e
				}
			}
		})
		return ns / float64(len(m.vals)), err
	}},
	{"fragment.append_stored_ns_per_row", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		a := fragment.NewArena()
		var err error
		ns := timeBatches(d, 8, func() {
			if _, e := m.batchOfRows(a); e != nil {
				err = e
			}
		})
		return ns / float64(len(m.vals)), err
	}},
	{"fragment.filter_batch_ns_per_row", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		a := fragment.NewArena()
		b, err := m.batchOfRows(a)
		if err != nil {
			return 0, err
		}
		ns := timeBatches(d, 64, func() {
			if _, _, e := m.filter.FilterBatch(b, 0, 0, a.Sel(b.Len())); e != nil {
				err = e
			}
		})
		return ns / float64(b.Len()), err
	}},
	{"fragment.eval_batch_ns_per_row", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		a := fragment.NewArena()
		b, err := m.batchOfRows(a)
		if err != nil {
			return 0, err
		}
		sel := make([]int, b.Len())
		for i := range sel {
			sel[i] = i
		}
		// qty * 2 + 1: arithmetic over a column, the shape of an aggregate
		// argument or a projected expression.
		expr := &fragment.Expr{Op: fragment.OpAdd, Args: []fragment.Expr{
			{Op: fragment.OpMul, Args: []fragment.Expr{{Op: fragment.OpCol, Col: 2}, {Op: fragment.OpConst, Val: int64(2)}}},
			{Op: fragment.OpConst, Val: int64(1)}}}
		out := make([]any, b.Len())
		ns := timeBatches(d, 16, func() {
			if e := fragment.EvalBatch(expr, b, sel, out); e != nil {
				err = e
			}
		})
		return ns / float64(b.Len()), err
	}},
	{"fragment.agg_fold_ns_per_row", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var err error
		ns := timeBatches(d, 64, func() {
			var st fragment.AggState
			for _, r := range m.rows {
				if e := st.Fold(fragment.AggSum, r[2]); e != nil {
					err = e
				}
			}
		})
		return ns / float64(len(m.rows)), err
	}},
	{"fragment.codec_encode_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var err error
		ns := timeBatches(d, 256, func() {
			if _, e := m.filter.Encode(); e != nil {
				err = e
			}
		})
		return ns, err
	}},
	{"fragment.codec_decode_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		enc, err := m.filter.Encode()
		if err != nil {
			return 0, err
		}
		ns := timeBatches(d, 256, func() {
			if _, e := fragment.Decode(enc); e != nil {
				err = e
			}
		})
		return ns, err
	}},
	{"wire.row_frame_encode_ns_per_row", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		batch := &wire.RowBatch{}
		for _, r := range m.rows[:128] { // the server's default batch
			batch.Rows = append(batch.Rows, r)
		}
		var buf []byte
		var err error
		ns := timeBatches(d, 16, func() {
			if buf, err = wire.AppendFrame(buf[:0], batch); err != nil {
				buf = nil
			}
		})
		return ns / float64(len(batch.Rows)), err
	}},
	{"wire.row_frame_decode_ns_per_row", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		batch := &wire.RowBatch{}
		for _, r := range m.rows[:128] {
			batch.Rows = append(batch.Rows, r)
		}
		frame, err := wire.AppendFrame(nil, batch)
		if err != nil {
			return 0, err
		}
		payload := frame[5:] // past the length word and the type byte
		ns := timeBatches(d, 16, func() {
			if _, e := wire.DecodePayload(wire.MsgRowBatch, payload); e != nil {
				err = e
			}
		})
		return ns / float64(len(batch.Rows)), err
	}},
	{"gsql.parse_us", "us", func(_ context.Context, _ *microEnv, d time.Duration) (float64, error) {
		var err error
		ns := timeBatches(d, 32, func() {
			if _, e := gsql.Parse(sqlStmtJoin); e != nil {
				err = e
			}
		})
		return ns / 1000, err
	}},
	{"gsql.plan_us", "us", func(ctx context.Context, m *microEnv, d time.Duration) (float64, error) {
		// Prepare on a text the plan cache has not seen parses and plans;
		// the parser's share is measured the same way and taken off.
		text := func(n int) string {
			return fmt.Sprintf("%s AND i.i_id > -%d", ladderSQLJoin, n)
		}
		n := 0
		var err error
		parse := timeBatches(d/2, 32, func() {
			n++
			if _, e := gsql.Parse(text(n)); e != nil {
				err = e
			}
		})
		both := timeBatches(d/2, 32, func() {
			n++
			if _, e := m.cluster.sql.Prepare(ctx, text(n)); e != nil {
				err = e
			}
		})
		if both < parse {
			both = parse
		}
		return (both - parse) / 1000, err
	}},
	{"redo.append_record_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var buf []byte
		ns := timeBatches(d, 64, func() {
			buf = buf[:0]
			for _, r := range m.recs {
				buf = redo.AppendRecord(buf, r)
			}
		})
		return ns / float64(len(m.recs)), nil
	}},
	{"redo.decode_record_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		buf := redo.Marshal(m.recs)
		var err error
		ns := timeBatches(d, 64, func() {
			rest := buf
			for len(rest) > 0 && err == nil {
				_, rest, err = redo.DecodeRecord(rest)
			}
		})
		return ns / float64(len(m.recs)), err
	}},
	{"repl.compress_ns_per_kb", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		var batch []redo.Record
		for i := 0; i < 8; i++ { // what a shipper coalesces under load
			batch = append(batch, m.recs...)
		}
		buf := redo.Marshal(batch)
		var err error
		ns := timeBatches(d, 4, func() {
			if _, e := (repl.Flate{}).Compress(buf); e != nil {
				err = e
			}
		})
		return ns / (float64(len(buf)) / 1024), err
	}},
	{"repl.apply_ns_per_record", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		ap := repl.NewApplier(mvcc.NewStore())
		lsn, txn := uint64(0), uint64(100)
		recs := make([]redo.Record, len(m.recs))
		var err error
		ns := timeBatches(d, 16, func() {
			txn++
			for i, r := range m.recs {
				lsn++
				r.LSN, r.Txn = lsn, txn
				if r.Type == redo.TypeCommit {
					r.TS = ts.Timestamp(lsn)
				}
				recs[i] = r
			}
			if _, e := ap.Apply(recs); e != nil {
				err = e
			}
		})
		return ns / float64(len(recs)), err
	}},
	{"wal.append_us", "us", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		w, err := wal.Open(wal.Options{Dir: filepath.Join(m.dir, "wal-append"), Sync: wal.SyncNever})
		if err != nil {
			return 0, err
		}
		defer w.Close()
		recs := append([]redo.Record(nil), m.recs...)
		ns := timeBatches(d, 16, func() {
			if _, e := w.AppendAssign(recs); e != nil {
				err = e
			}
		})
		return ns / 1000, err
	}},
	{"wal.durable_wait_us", "us", func(ctx context.Context, m *microEnv, d time.Duration) (float64, error) {
		// Two committers, as in the workloads: each appends one commit's
		// records and waits until the group fsync covers them.
		w, err := wal.Open(wal.Options{Dir: filepath.Join(m.dir, "wal-durable"), Sync: wal.SyncGroup,
			Linger: walLinger, FsyncDelay: walFsyncDelay})
		if err != nil {
			return 0, err
		}
		defer w.Close()
		waits := make([][]float64, numClients)
		errs := make([]error, numClients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < numClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				recs := append([]redo.Record(nil), m.recs...)
				for len(waits[c]) < 5 || time.Since(t0) < d {
					lsn, err := w.AppendAssign(recs)
					if err != nil {
						errs[c] = err
						return
					}
					start := time.Now()
					if err := w.WaitDurable(ctx, lsn); err != nil {
						errs[c] = err
						return
					}
					waits[c] = append(waits[c], float64(time.Since(start))/1000)
				}
			}(c)
		}
		wg.Wait()
		var all []float64
		for c := range waits {
			if errs[c] != nil {
				return 0, errs[c]
			}
			all = append(all, waits[c]...)
		}
		return median(all), nil
	}},
	{"mvcc.get_deep_chain_ns", "ns", func(ctx context.Context, m *microEnv, d time.Duration) (float64, error) {
		const depth = 64
		s := mvcc.NewStore()
		for v := 1; v <= depth; v++ {
			for i := range m.pks {
				s.ApplyCommitted(m.pks[i], m.vals[i], false, ts.Timestamp(v*10))
			}
		}
		// Read in the middle of the chain: half the versions are newer.
		snap := ts.Timestamp(depth * 10 / 2)
		var err error
		ns := timeBatches(d, 16, func() {
			for _, k := range m.pks {
				if _, _, e := s.Get(ctx, k, snap, 0); e != nil {
					err = e
				}
			}
		})
		return ns / float64(len(m.pks)), err
	}},
	{"mvcc.prune_ns_per_version", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		const depth = 16
		var per []float64
		t0 := time.Now()
		for len(per) < 5 || time.Since(t0) < d {
			s := mvcc.NewStore()
			for v := 1; v <= depth; v++ {
				for i := range m.pks {
					s.ApplyCommitted(m.pks[i], m.vals[i], false, ts.Timestamp(v*10))
				}
			}
			start := time.Now()
			removed := s.Prune(ts.Timestamp(depth * 10))
			if removed == 0 {
				return 0, fmt.Errorf("mvcc.prune: nothing pruned from %d-deep chains", depth)
			}
			per = append(per, float64(time.Since(start))/float64(removed))
		}
		return median(per), nil
	}},
	{"btree.get_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		t := microTree(m)
		probe := m.cluster.pk(3, 100)
		missing := 0
		ns := timeBatches(d, 1024, func() {
			if _, ok := t.Get(probe); !ok {
				missing++
			}
		})
		if missing > 0 {
			return 0, fmt.Errorf("btree.get: key missing")
		}
		return ns, nil
	}},
	{"btree.set_ns", "ns", func(_ context.Context, m *microEnv, d time.Duration) (float64, error) {
		t := microTree(m)
		i := int64(0)
		ns := timeBatches(d, 1024, func() {
			i++
			t.Set(m.cluster.pk(1+i%ladderWarehouses, 1+i%ladderPerWarehouse), int(i))
		})
		return ns, nil
	}},
	{"rcp.compute_ns", "ns", func(_ context.Context, _ *microEnv, d time.Duration) (float64, error) {
		perShard := map[int][]ts.Timestamp{}
		for s := 0; s < geoShards; s++ {
			perShard[s] = []ts.Timestamp{ts.Timestamp(1000 + s), ts.Timestamp(2000 - s)}
		}
		var got ts.Timestamp
		ns := timeBatches(d, 256, func() { got = rcp.ComputeRCP(perShard) })
		if got != 1995 {
			return 0, fmt.Errorf("rcp.compute: RCP %d, want 1995", got)
		}
		return ns, nil
	}},
	{"rcp.poll_once_us", "us", func(ctx context.Context, m *microEnv, d time.Duration) (float64, error) {
		col := m.cluster.db.Cluster().Collector
		ns := timeBatches(d, 4, func() { col.PollOnce(ctx) })
		return ns / 1000, nil
	}},
	{"ror.pick_ns", "ns", func(_ context.Context, _ *microEnv, d time.Duration) (float64, error) {
		tr := ror.NewTracker()
		for shard := 0; shard < geoShards; shard++ {
			tr.AddNode(shard, fmt.Sprintf("dn%d", shard), "xian", true, 5*time.Millisecond)
			for r, region := range []string{"langzhong", "dongguan"} {
				node := fmt.Sprintf("dn%dr%d", shard, r)
				tr.AddNode(shard, node, region, false, time.Duration(r)*3*time.Millisecond)
				tr.UpdateStatus(node, time.Duration(10+r)*time.Millisecond, int64(r), true)
			}
		}
		shard, misses := 0, 0
		ns := timeBatches(d, 256, func() {
			shard = (shard + 1) % geoShards
			if _, ok := tr.Pick(shard, 200*time.Millisecond, false); !ok {
				misses++
			}
		})
		if misses > 0 {
			return 0, fmt.Errorf("ror.pick: no node qualified")
		}
		return ns, nil
	}},
	{"tso.begin_ns", "ns", func(ctx context.Context, m *microEnv, d time.Duration) (float64, error) {
		o := m.cluster.sess.CN().Oracle()
		var err error
		ns := timeBatches(d, 16, func() {
			if _, e := o.Begin(ctx); e != nil {
				err = e
			}
		})
		return ns, err
	}},
	{"tso.commit_wait_us", "us", func(ctx context.Context, m *microEnv, d time.Duration) (float64, error) {
		o := m.cluster.sess.CN().Oracle()
		var err error
		ns := timeBatches(d, 16, func() {
			_, finish, e := o.Commit(ctx, o.Mode())
			if e == nil {
				e = finish(ctx)
			}
			if e != nil {
				err = e
			}
		})
		return ns / 1000, err
	}},
	{"gtm.handle_ns", "ns", func(_ context.Context, _ *microEnv, d time.Duration) (float64, error) {
		s := gtm.NewServer()
		var err error
		ns := timeBatches(d, 256, func() {
			if _, e := s.Handle(gtm.Request{Mode: ts.ModeGTM}); e != nil {
				err = e
			}
		})
		return ns, err
	}},
	{"netsim.call_overhead_ns", "ns", func(ctx context.Context, _ *microEnv, d time.Duration) (float64, error) {
		// A zero-latency same-region call to a handler that does nothing:
		// the simulator's own cost per RPC, to be taken off before blaming
		// the system.
		n := netsim.New(netsim.Config{TimeScale: timeScale})
		n.AddRegion("a")
		n.Register("echo", "a", func(_ context.Context, req netsim.Message) (netsim.Message, error) { return req, nil })
		var err error
		ns := timeBatches(d, 256, func() {
			if _, e := n.Call(ctx, "a", "echo", netsim.Message{Size: 32}); e != nil {
				err = e
			}
		})
		return ns, err
	}},
	{"netsim.sleep_overshoot_us", "us", func(ctx context.Context, _ *microEnv, d time.Duration) (float64, error) {
		// The shortest one-way delay the geo workloads inject is 1.25 ms
		// (Xi'an-Langzhong, 25 ms RTT at the time scale); the overshoot is
		// what the timer adds on top.
		const oneWay = 1250 * time.Microsecond
		n := netsim.New(netsim.Config{TimeScale: 1})
		n.AddRegion("a")
		n.AddRegion("b")
		n.SetLink("a", "b", 2*oneWay, 0)
		var err error
		ns := timeBatches(d, 1, func() {
			if e := n.Delay(ctx, "a", "b", 0); e != nil {
				err = e
			}
		})
		return (ns - float64(oneWay)) / 1000, err
	}},
}

func microTree(m *microEnv) *btree.Tree[int] {
	t := btree.New[int]()
	for w := int64(1); w <= ladderWarehouses; w++ {
		for i := int64(1); i <= ladderPerWarehouse; i++ {
			t.Set(m.cluster.pk(w, i), int(i))
		}
	}
	return t
}

// runMicro runs every probe with an equal share of the budget.
func runMicro(ctx context.Context, budget time.Duration, dir string) (map[string]metricValue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, err := newMicroEnv(ctx, dir)
	if err != nil {
		return nil, fmt.Errorf("micro: %w", err)
	}
	defer m.close()
	per := budget / time.Duration(len(microProbes))
	out := map[string]metricValue{}
	for _, p := range microProbes {
		v, err := p.run(ctx, m, per)
		if err != nil {
			return nil, fmt.Errorf("micro %s: %w", p.name, err)
		}
		out[p.name] = metricValue{v, p.unit}
	}
	return out, nil
}
