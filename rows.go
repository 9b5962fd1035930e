package globaldb

import (
	"context"
	"fmt"

	"globaldb/gsql/fragment"
	"globaldb/internal/coordinator"
	"globaldb/internal/datanode"
	"globaldb/internal/keys"
	"globaldb/internal/stats"
	"globaldb/internal/table"
)

// DefaultScanPageSize is the rows-per-RPC page size streaming scans use
// when ScanOpts.PageSize is unset.
const DefaultScanPageSize = datanode.DefaultScanPageSize

// ScanRange bounds the first key column after a scan's equality prefix: for
// a PK scan over prefix (w_id), the range applies to the next PK column;
// for an index scan, to the next index column; for a table scan, to the
// leading PK column. A nil Lo or Hi leaves that side unbounded. Values must
// match the column's kind (the same values Get and ScanPK accept).
type ScanRange struct {
	// Lo is the lower bound (inclusive unless LoExcl).
	Lo any
	// Hi is the upper bound (inclusive unless HiExcl).
	Hi any
	// LoExcl makes Lo exclusive.
	LoExcl bool
	// HiExcl makes Hi exclusive.
	HiExcl bool
}

// ScanOpts tunes a streaming scan.
type ScanOpts struct {
	// Limit caps the total rows yielded; <= 0 means unlimited. With a
	// Pushdown fragment attached, the limit budgets qualifying rows — the
	// rows that survive the data-node-side filter.
	Limit int
	// PageSize is the rows fetched by the first storage RPC; <= 0 uses
	// DefaultScanPageSize. Smaller first pages cut time-to-first-row and
	// wasted prefetch when a LIMIT stops the scan early; follow-up pages
	// grow adaptively toward DefaultScanPageSize to amortize WAN round
	// trips on deep scans.
	PageSize int
	// Prefetch is the pages-ahead window of the background prefetcher each
	// shard cursor runs: 0 uses the default (double buffering — the next
	// page's WAN round trip overlaps consumption of the current one, and a
	// multi-shard scan fetches all first pages in parallel), a positive
	// value keeps that many unconsumed pages fetched or in flight, and a
	// negative value disables prefetching entirely (pages are fetched
	// synchronously on demand — no RPC is ever issued for rows the
	// consumer did not ask for, at the price of one idle WAN round trip
	// between pages). The window bounds early-termination waste: a
	// consumer that stops mid-scan has paid for at most Prefetch extra
	// pages per shard.
	Prefetch int
	// Range optionally bounds the first key column after the equality
	// prefix, narrowing the scanned key range inside storage.
	Range *ScanRange
	// Pushdown, when non-nil, is an execution fragment the data nodes
	// evaluate next to the data: rows are filtered, projected, or folded
	// into per-group partial aggregates before crossing the WAN. With
	// aggregates, the Rows yield one row per group shaped
	// [group values..., fragment.AggState per slot...] with per-shard
	// partial states already merged. All three scans accept it: on an
	// index scan the data node runs it over the rows the index entries
	// name.
	Pushdown *fragment.Fragment
}

// ScanStats reports one scan's per-layer row counts and its page and
// prefetch observability, as the scan counters' snapshot. The
// StorageRows-to-WANRows gap is the pushdown win, observable per query at
// runtime rather than only in benchmarks.
type ScanStats = stats.ScanSnapshot

// Rows is a streaming scan result. It is batch-native inside: the cursor
// below it yields whole data-node pages, and each page is decoded in one
// pass into a fresh backing slab (one slab per batch instead of one
// allocation per row). NextBatch/Batch expose the batches to batch-aware
// consumers like the SQL operator pipeline; Next/Row remain the
// row-at-a-time edge for everything else. A Rows must be closed (Close is
// idempotent, and draining to exhaustion also suffices).
//
// Scans prefetch: while one batch is being decoded or consumed, the next
// page's RPC is already in flight on a per-shard prefetch goroutine (see
// ScanOpts.Prefetch). That concurrency is safe by construction of the
// batch lifetime rules: a page shipped by a data node never aliases a
// buffer the node reuses for later requests (responses slice immutable
// MVCC store memory or a per-request encode buffer), and this layer
// decodes every page into a fresh slab, so a prefetched page landing
// mid-decode cannot touch memory any earlier batch — or any retained Row —
// still references. Close cancels in-flight page RPCs and joins the
// prefetch goroutines before returning.
type Rows struct {
	ctx       context.Context
	cur       coordinator.BatchCursor
	dec       fragment.RowDecoder // batch-decodes every shipped page
	ctrs      *stats.ScanCounters
	remaining int // rows still to yield; < 0 means unlimited
	batch     []Row
	bpos      int
	bview     []Row
	row       Row
	err       error
	closed    bool
}

// ScanStats reports this scan's per-layer row counts so far: storage rows
// examined by data nodes, rows dropped node-side, and rows shipped over
// the WAN. Valid at any point during iteration; final once the scan is
// drained or closed.
func (r *Rows) ScanStats() ScanStats { return r.ctrs.Snapshot() }

// fillBatch decodes the cursor's next non-empty batch into r.batch. Rows
// are backed by one fresh slab per batch, never reused, so a caller may
// retain any yielded Row indefinitely.
func (r *Rows) fillBatch() bool {
	if r.closed || r.err != nil || r.remaining == 0 {
		return false
	}
	for {
		if !r.cur.NextBatch(r.ctx) {
			r.err = r.cur.Err()
			return false
		}
		kvs := r.cur.Batch()
		if r.remaining > 0 && len(kvs) > r.remaining {
			kvs = kvs[:r.remaining]
		}
		if len(kvs) == 0 {
			continue
		}
		// Every shipped shape decodes the same way: one row per pair, one
		// slab per page.
		n, w := len(kvs), r.dec.Width()
		slab := make([]any, 0, w*n)
		for i := range kvs {
			var err error
			if slab, err = r.dec.DecodeAppend(kvs[i].Key, kvs[i].Value, slab); err != nil {
				r.err = err
				return false
			}
		}
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row(slab[i*w : (i+1)*w : (i+1)*w])
		}
		if r.remaining > 0 {
			r.remaining -= n
		}
		r.batch, r.bpos = rows, 0
		return true
	}
}

// Next advances to the next row, returning false at the end of the scan or
// on error (check Err afterwards).
func (r *Rows) Next() bool {
	if r.bpos >= len(r.batch) && !r.fillBatch() {
		return false
	}
	r.row = r.batch[r.bpos]
	r.bpos++
	return true
}

// NextBatch advances to the next batch of rows — the unconsumed remainder
// of the current batch, or the next decoded page — returning false at the
// end of the scan or on error. Batch-aware consumers use this instead of
// Next to move whole pages through the pipeline.
func (r *Rows) NextBatch() bool {
	if r.bpos >= len(r.batch) && !r.fillBatch() {
		return false
	}
	r.bview = r.batch[r.bpos:]
	r.bpos = len(r.batch)
	return true
}

// Batch returns the current batch of rows (valid after a true NextBatch,
// until the following NextBatch). The rows themselves may be retained
// indefinitely; only the slice is reused.
func (r *Rows) Batch() []Row { return r.bview }

// Row returns the current row. It is valid after a Next that returned true;
// the row's backing storage is never reused, so retaining it is safe.
func (r *Rows) Row() Row { return r.row }

// Err returns the first error encountered while scanning, or nil.
func (r *Rows) Err() error { return r.err }

// Close releases the underlying cursor. Idempotent.
func (r *Rows) Close() error {
	if !r.closed {
		r.closed = true
		r.cur.Close()
	}
	return nil
}

// drainRows materializes an iterator — the legacy scan methods' shape.
func drainRows(r *Rows) ([]Row, error) {
	defer r.Close()
	out := make([]Row, 0, 16)
	for r.Next() {
		out = append(out, r.Row())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// applyRange narrows [start, end) with a ScanRange. encodeNext encodes the
// scan prefix extended with one more column value.
func applyRange(start, end []byte, rng *ScanRange, encodeNext func(v any) ([]byte, error)) ([]byte, []byte, error) {
	if rng == nil {
		return start, end, nil
	}
	if rng.Lo != nil {
		b, err := encodeNext(rng.Lo)
		if err != nil {
			return nil, nil, err
		}
		if rng.LoExcl {
			// Skip every key whose next column equals Lo.
			b = keys.PrefixEnd(b)
		}
		if b != nil && keys.Compare(b, start) > 0 {
			start = b
		}
	}
	if rng.Hi != nil {
		b, err := encodeNext(rng.Hi)
		if err != nil {
			return nil, nil, err
		}
		if !rng.HiExcl {
			// Include every key whose next column equals Hi.
			b = keys.PrefixEnd(b)
		}
		if b != nil && (end == nil || keys.Compare(b, end) < 0) {
			end = b
		}
	}
	return start, end, nil
}

// extendPrefix returns a copy of prefix with v appended (never aliasing the
// caller's backing array).
func extendPrefix(prefix []any, v any) []any {
	out := make([]any, 0, len(prefix)+1)
	out = append(out, prefix...)
	return append(out, v)
}

// scanSetup carries the per-scan pieces a pushdown-aware scan shares
// across its shard cursors: the fragment encoded once, the per-query
// counters every cursor feeds, and the decoder of the rows the data nodes
// ship.
type scanSetup struct {
	frag []byte
	ctrs *stats.ScanCounters
	dec  fragment.RowDecoder
}

// setupScan validates a scan's pushdown fragment against the schema and
// prepares the shared scan state. An index scan always ships a fragment,
// marked Index, so the data node reads the rows its entries name; the
// other scans ship one only when the caller pushes one down.
func setupScan(sch *table.Schema, o ScanOpts, index bool) (*scanSetup, error) {
	st := &scanSetup{ctrs: &stats.ScanCounters{}}
	p := o.Pushdown
	switch {
	case p == nil:
		p = &fragment.Fragment{Kinds: sch.Kinds()}
	case len(p.Kinds) != len(sch.Columns):
		return nil, fmt.Errorf("globaldb: pushdown fragment has %d column kinds for table %s with %d columns",
			len(p.Kinds), sch.Name, len(sch.Columns))
	}
	// The fragment's layout says what each shipped row carries: a stored,
	// projected or joined row (unshipped columns nil; the planner
	// guarantees nothing downstream reads them), or group values followed
	// by one fragment.AggState per aggregate slot.
	st.dec = p.Layout().Decoder()
	if index {
		f := *p
		f.Index = true
		p = &f
	} else if o.Pushdown == nil {
		return st, nil
	}
	var err error
	if st.frag, err = p.Encode(); err != nil {
		return nil, err
	}
	return st, nil
}

// spec builds one shard cursor's ScanSpec.
func (st *scanSetup) spec(start, end []byte, o ScanOpts) coordinator.ScanSpec {
	return coordinator.ScanSpec{
		Start: start, End: end,
		Limit: o.Limit, PageSize: o.PageSize, Prefetch: o.Prefetch,
		Frag: st.frag, Counters: st.ctrs,
	}
}

// open merges per-shard cursors in global key order, adding the CN-final
// partial-aggregate merge when the scan's fragment aggregates, and streams
// the result as Rows.
func (st *scanSetup) open(ctx context.Context, curs []coordinator.BatchCursor, o ScanOpts) *Rows {
	cur := curs[0]
	if len(curs) > 1 {
		cur = coordinator.MergeCursors(curs...)
	}
	if o.Pushdown != nil && o.Pushdown.HasAggs() {
		cur = coordinator.MergeAggregates(cur, fragment.MergeEncodedStates)
	}
	r := &Rows{ctx: ctx, cur: cur, dec: st.dec, ctrs: st.ctrs, remaining: -1}
	if o.Limit > 0 {
		r.remaining = o.Limit
	}
	return r
}

// pkScanBounds computes the key range and shard of a PK-prefix scan. The
// prefix must cover the distribution column so the scan is single-shard; a
// range bounds the PK column after the prefix.
func pkScanBounds(db *DB, sch *Schema, pkPrefix []any, rng *ScanRange) (start, end []byte, shard int, err error) {
	if len(pkPrefix) == 0 || len(pkPrefix) > len(sch.PK) {
		return nil, nil, 0, fmt.Errorf("globaldb: PK prefix of %d values for %d PK columns", len(pkPrefix), len(sch.PK))
	}
	pos := pkPos(sch)
	if pos >= len(pkPrefix) {
		return nil, nil, 0, fmt.Errorf("globaldb: PK prefix must include the distribution column %s", sch.Columns[sch.ShardBy].Name)
	}
	start, err = sch.PrimaryKeyPrefix(pkPrefix)
	if err != nil {
		return nil, nil, 0, err
	}
	if rng != nil && len(pkPrefix) >= len(sch.PK) {
		return nil, nil, 0, fmt.Errorf("globaldb: range scan on %s needs an unbound PK column after the prefix", sch.Name)
	}
	start, end, err = applyRange(start, keys.PrefixEnd(start), rng, func(v any) ([]byte, error) {
		return sch.PrimaryKeyPrefix(extendPrefix(pkPrefix, v))
	})
	return start, end, db.c.ShardOf(pkPrefix[pos]), err
}

// indexScanBounds computes the key range and shard of an index-prefix scan.
// The distribution column must be among the prefixed index columns so the
// scan is single-shard; a range bounds the index column after the prefix.
func indexScanBounds(db *DB, sch *Schema, ix table.Index, prefix []any, rng *ScanRange) (start, end []byte, shard int, err error) {
	start, err = sch.IndexPrefix(ix, prefix)
	if err != nil {
		return nil, nil, 0, err
	}
	shardCol := -1
	for i, col := range ix.Cols {
		if col == sch.ShardBy && i < len(prefix) {
			shardCol = i
			break
		}
	}
	if shardCol < 0 {
		return nil, nil, 0, fmt.Errorf("globaldb: index scan on %s.%s must prefix the distribution column", sch.Name, ix.Name)
	}
	if rng != nil && len(prefix) >= len(ix.Cols) {
		return nil, nil, 0, fmt.Errorf("globaldb: range scan on %s.%s needs an unbound index column after the prefix", sch.Name, ix.Name)
	}
	start, end, err = applyRange(start, keys.PrefixEnd(start), rng, func(v any) ([]byte, error) {
		return sch.IndexPrefix(ix, extendPrefix(prefix, v))
	})
	return start, end, db.c.ShardOf(prefix[shardCol]), err
}

// ScanPKRows streams rows whose primary key starts with pkPrefix, in key
// order, pulling pages from the snapshot source on demand. The prefix must
// include the distribution column so the scan is single-shard.
func (c *readCore) ScanPKRows(ctx context.Context, tableName string, pkPrefix []any, o ScanOpts) (*Rows, error) {
	sch, err := c.sess.schemaOf(tableName)
	if err != nil {
		return nil, err
	}
	start, end, shard, err := pkScanBounds(c.sess.db, sch, pkPrefix, o.Range)
	if err != nil {
		return nil, err
	}
	st, err := setupScan(sch, o, false)
	if err != nil {
		return nil, err
	}
	return st.open(ctx, []coordinator.BatchCursor{c.txn.ScanCursor(ctx, shard, st.spec(start, end, o))}, o), nil
}

// ScanIndexRows streams rows matched by a secondary-index prefix, in index
// order. The scan is single-shard, and the data node serving it reads the
// row each index entry names, so rows cross the WAN one page at a time as
// in the other scans, and a Pushdown fragment runs over them there.
func (c *readCore) ScanIndexRows(ctx context.Context, tableName, indexName string, prefix []any, o ScanOpts) (*Rows, error) {
	sch, ix, err := indexOf(c.sess, tableName, indexName)
	if err != nil {
		return nil, err
	}
	start, end, shard, err := indexScanBounds(c.sess.db, sch, ix, prefix, o.Range)
	if err != nil {
		return nil, err
	}
	st, err := setupScan(sch, o, true)
	if err != nil {
		return nil, err
	}
	return st.open(ctx, []coordinator.BatchCursor{c.txn.ScanCursor(ctx, shard, st.spec(start, end, o))}, o), nil
}

// ScanTableRows streams every row of a table, merging per-shard paged
// cursors so rows arrive in global primary-key order.
func (c *readCore) ScanTableRows(ctx context.Context, tableName string, o ScanOpts) (*Rows, error) {
	sch, err := c.sess.schemaOf(tableName)
	if err != nil {
		return nil, err
	}
	// A range on a table scan bounds the leading PK column.
	start := sch.TablePrefix()
	start, end, err := applyRange(start, keys.PrefixEnd(start), o.Range, func(v any) ([]byte, error) {
		return sch.PrimaryKeyPrefix([]any{v})
	})
	if err != nil {
		return nil, err
	}
	st, err := setupScan(sch, o, false)
	if err != nil {
		return nil, err
	}
	// Every shard cursor starts its prefetcher at creation, so all shards'
	// node selection (routing lookup, or the skyline pick on replicas) and
	// first pages are issued concurrently and the cross-shard scan's setup
	// costs one round trip, not one per shard.
	curs := c.txn.ScanCursors(ctx, c.sess.db.c.Shards(), st.spec(start, end, o))
	return st.open(ctx, curs, o), nil
}
