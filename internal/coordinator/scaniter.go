package coordinator

import (
	"bytes"
	"context"
	"sort"
	"time"

	"globaldb/internal/datanode"
	"globaldb/internal/obs"
	"globaldb/internal/stats"
	"globaldb/internal/storage/mvcc"
)

// BatchCursor is the batch-native pull iterator the scan pipeline runs on:
// each NextBatch yields a reference to the next run of key/value pairs —
// typically a whole data-node page — instead of one pair at a time.
// Implementations move batch references rather than copying rows: the
// cross-shard merge only splits a page where another shard's keys
// interleave. A returned batch is valid until the following NextBatch
// call, and its pairs must be treated as read-only (they may alias storage
// memory end to end).
type BatchCursor interface {
	// NextBatch advances to the following batch, fetching if needed. It
	// returns false at the end of the stream or on error.
	NextBatch(ctx context.Context) bool
	// Batch returns the current batch (valid after a true NextBatch, until
	// the following NextBatch).
	Batch() []mvcc.KV
	// Err returns the first error encountered, if any.
	Err() error
	// Close releases the cursor. It is safe to call multiple times.
	Close()
}

// fetchPage retrieves one page starting at start: it returns the pairs, the
// resume key, and whether the range may hold more. remaining is the total
// row budget still wanted (<= 0 means unlimited); page is the requested
// page size for this fetch (<= 0 lets the data node pick its default).
type fetchPage func(ctx context.Context, start []byte, remaining, page int) ([]mvcc.KV, []byte, bool, error)

// DefaultPrefetchWindow is the number of pages a cursor keeps fetched (or
// in flight) ahead of the page being consumed when the caller does not
// choose a window: classic double buffering. One page ahead already turns
// a multi-page drain from serial (RTT + consume, per page) into pipelined
// (max(RTT, consume) per page), and — because every cursor's prefetcher
// starts at creation — gives a K-shard merged scan all K first pages in
// parallel. Deeper windows only help when consumption is burstier than one
// page; they cost proportionally more wasted WAN bandwidth when the
// consumer stops early.
const DefaultPrefetchWindow = 1

// prefetched is one page handed from the prefetch goroutine to the
// consumer. A non-nil err terminates the stream.
type prefetched struct {
	kvs []mvcc.KV
	err error
}

// ScanCursor streams one shard's key range as pages. It is the pipeline's
// batch source: each data-node page is handed upward as one batch
// reference.
//
// With a prefetch window (the default), a per-cursor goroutine runs the
// page fetch loop ahead of consumption: the first page's RPC is issued the
// moment the cursor is created and each following page is requested as
// soon as its predecessor's resume key arrives, so the WAN round trip of
// page N+1 overlaps the consumer processing page N, and the first pages of
// K sibling shard cursors travel in parallel. The window bounds how many
// unconsumed pages may be fetched or in flight, which is also the maximum
// WAN waste when a consumer stops early. With the window disabled the
// cursor fetches synchronously on demand, exactly as before.
//
// Pages grow adaptively in either mode: the first page uses the caller's
// hint (cheap time-to-first-row, little wasted prefetch when a LIMIT stops
// the scan), and each following page quadruples up to the data node's
// default so deep scans amortize WAN round trips. The growth state lives
// in the serial fetch loop, so issuing requests ahead of consumption
// cannot reorder or skip the growth schedule.
type ScanCursor struct {
	fetch fetchPage
	ctrs  *stats.ScanCounters // optional; fed page-wait/prefetch-hit stats

	// Fetch-side state machine. The consumer drives it from fill in
	// synchronous mode; with prefetch it is owned exclusively by the
	// prefetch goroutine (no lock needed — pages cross via the channel).
	next      []byte
	remaining int // rows still wanted; < 0 means unlimited
	pageSize  int // current page size; <= 0 lets the node pick
	pageCap   int // growth ceiling
	started   bool
	more      bool

	// Consumer-side state.
	batch  []mvcc.KV
	err    error
	closed bool

	// Prefetcher plumbing; nil cancel means synchronous mode.
	pages  chan prefetched
	cancel context.CancelFunc
	done   chan struct{}
}

// newScanCursor builds a cursor; window > 0 starts a prefetcher fetching
// that many pages ahead of consumption under ctx (canceled by Close).
func newScanCursor(ctx context.Context, start []byte, limit, pageSize, window int, ctrs *stats.ScanCounters, fetch fetchPage) *ScanCursor {
	remaining := -1
	if limit > 0 {
		remaining = limit
	}
	cap := datanode.DefaultScanPageSize
	if pageSize > cap {
		cap = pageSize
	}
	c := &ScanCursor{fetch: fetch, ctrs: ctrs, next: bytes.Clone(start), remaining: remaining,
		pageSize: pageSize, pageCap: cap}
	if window > 0 {
		pctx, cancel := context.WithCancel(ctx)
		// Channel capacity window-1: one page rests in the goroutine's hand
		// (fetched, blocked on send) and window-1 more are buffered, so at
		// most `window` unconsumed pages exist at any moment.
		c.pages = make(chan prefetched, window-1)
		c.cancel = cancel
		c.done = make(chan struct{})
		go c.prefetchLoop(pctx)
	}
	return c
}

// fetchOnce advances the serial fetch state machine by one page. It
// returns the page (possibly empty), whether the stream is exhausted, and
// any error. It must only be called from one goroutine at a time: the
// consumer (synchronous mode) or the prefetcher.
func (c *ScanCursor) fetchOnce(ctx context.Context) (kvs []mvcc.KV, done bool, err error) {
	if (c.started && !c.more) || c.remaining == 0 {
		return nil, true, nil
	}
	want := 0
	if c.remaining > 0 {
		want = c.remaining
	}
	kvs, next, more, err := c.fetch(ctx, c.next, want, c.pageSize)
	if err != nil {
		return nil, true, err
	}
	c.started = true
	if c.remaining > 0 {
		if len(kvs) > c.remaining {
			kvs = kvs[:c.remaining]
		}
		c.remaining -= len(kvs)
	}
	c.next, c.more = next, more
	if c.pageSize > 0 && c.pageSize < c.pageCap {
		c.pageSize *= 4
		if c.pageSize > c.pageCap {
			c.pageSize = c.pageCap
		}
	}
	return kvs, false, nil
}

// prefetchLoop runs the fetch state machine ahead of consumption, handing
// pages to the consumer over the bounded channel. It exits — closing the
// channel so the consumer observes end-of-stream — when the range is
// exhausted, the row budget is spent, an error occurs, or ctx is canceled
// (Close, or the scan's parent context).
func (c *ScanCursor) prefetchLoop(ctx context.Context) {
	defer close(c.done)
	defer close(c.pages)
	for {
		kvs, done, err := c.fetchOnce(ctx)
		if err != nil {
			select {
			case c.pages <- prefetched{err: err}:
			case <-ctx.Done():
			}
			return
		}
		if done {
			return
		}
		if len(kvs) == 0 {
			continue // empty page mid-range (e.g. a DN examine budget)
		}
		select {
		case c.pages <- prefetched{kvs: kvs}:
		case <-ctx.Done():
			return
		}
	}
}

// recvPage takes the next prefetched page. The fast path is a ready page —
// a prefetch hit, the WAN round trip fully hidden — otherwise the consumer
// blocks (accounted as WAN wait) until a page, an error, the end of the
// stream, or ctx cancellation arrives.
func (c *ScanCursor) recvPage(ctx context.Context) bool {
	var p prefetched
	var ok bool
	select {
	case p, ok = <-c.pages:
		if ok && c.ctrs != nil {
			c.ctrs.ObserveWait(0, true)
		}
	default:
		start := time.Now()
		select {
		case p, ok = <-c.pages:
		case <-ctx.Done():
			c.err = ctx.Err()
			return false
		}
		if ok && c.ctrs != nil {
			c.ctrs.ObserveWait(time.Since(start), false)
		}
	}
	if !ok {
		return false // clean end of stream (channel closed)
	}
	if p.err != nil {
		c.err = p.err
		return false
	}
	c.batch = p.kvs
	return true
}

// NextBatch implements BatchCursor: it yields the next non-empty page, taken
// from the prefetcher or fetched synchronously. The row budget truncates at
// the page level.
func (c *ScanCursor) NextBatch(ctx context.Context) bool {
	if c.closed || c.err != nil {
		return false
	}
	c.batch = nil
	for len(c.batch) == 0 {
		if c.cancel != nil {
			if !c.recvPage(ctx) {
				return false
			}
			continue
		}
		start := time.Now()
		kvs, done, err := c.fetchOnce(ctx)
		if err != nil {
			c.err = err
			return false
		}
		if done {
			return false
		}
		if c.ctrs != nil {
			c.ctrs.ObserveWait(time.Since(start), false)
		}
		c.batch = kvs
	}
	return true
}

// Batch implements BatchCursor.
func (c *ScanCursor) Batch() []mvcc.KV { return c.batch }

// Err implements BatchCursor.
func (c *ScanCursor) Err() error { return c.err }

// Close implements BatchCursor. In prefetch mode it cancels
// the outstanding page RPC (the netsim transport aborts canceled calls)
// and waits for the prefetch goroutine to exit, so a closed cursor never
// leaks a goroutine or lets a stale fetch land later.
func (c *ScanCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.cancel != nil {
		c.cancel()
		<-c.done
	}
}

// ScanSpec describes one shard's paged scan: the key range, row budgets,
// an optional encoded execution fragment the data node evaluates locally
// (globaldb/gsql/fragment), and optional per-query counters fed by every
// page fetch.
type ScanSpec struct {
	// Start and End bound the key range, [Start, End).
	Start, End []byte
	// Limit caps the qualifying rows the cursor yields; <= 0 unlimited.
	Limit int
	// PageSize is the first page's row budget; <= 0 uses the node default.
	PageSize int
	// Prefetch is the pages-ahead window: 0 uses DefaultPrefetchWindow,
	// negative disables prefetching (fully synchronous on-demand fetches),
	// and a positive value keeps that many unconsumed pages fetched or in
	// flight.
	Prefetch int
	// Frag is the encoded execution fragment shipped with every page
	// request; nil scans raw pairs.
	Frag []byte
	// Counters, when non-nil, accumulates per-fetch examined/shipped rows
	// plus page, prefetch-hit and WAN-wait observability.
	Counters *stats.ScanCounters
}

// window resolves the spec's prefetch setting to a concrete page window.
func (s ScanSpec) window() int {
	switch {
	case s.Prefetch < 0:
		return 0
	case s.Prefetch == 0:
		return DefaultPrefetchWindow
	default:
		return s.Prefetch
	}
}

// observePage feeds one fetched page into the spec's counters.
func (s ScanSpec) observePage(resp datanode.ScanPageResp) {
	if s.Counters != nil {
		s.Counters.ObserveJoin(resp.Examined, resp.Looked, len(resp.KVs))
	}
}

// ScanCursor returns a paged cursor over the spec's range on one shard's
// primary at the transaction's snapshot, observing the transaction's own
// writes. Any attached fragment runs on the data node before rows are
// shipped. ctx bounds the cursor's background prefetching; Close (or
// draining the cursor) releases it.
//
// Writes the transaction still buffers for the shard are flushed first, on
// the caller's goroutine, so the data node evaluates the scan over them; a
// failed flush (a write-write conflict) is the cursor's error. Writes
// buffered after the cursor opens are not visible to its later pages.
func (t *Txn) ScanCursor(ctx context.Context, shard int, spec ScanSpec) *ScanCursor {
	if err := t.flush(ctx, shard); err != nil {
		return &ScanCursor{err: err}
	}
	return newScanCursor(ctx, spec.Start, spec.Limit, spec.PageSize, spec.window(), spec.Counters,
		func(ctx context.Context, from []byte, remaining, page int) ([]mvcc.KV, []byte, bool, error) {
			if t.done.Load() {
				return nil, nil, false, ErrTxnDone
			}
			t.cn.primaryReads.Add(1)
			if tr := t.cn.placement; tr != nil {
				tr.RecordRead(shard, t.cn.region)
			}
			node := t.cn.routing.Primary(shard)
			rpc := obs.SpanFrom(ctx).Child("scan-page")
			rpc.Tag("shard=%d node=%s", shard, node)
			resp, err := t.cn.client.ScanPageFrag(ctx, node, from, spec.End, t.ts.Snap, remaining, page, spec.Frag, t.id)
			rpc.AddDNExec(time.Duration(resp.ExecNanos))
			rpc.End()
			if err != nil {
				return nil, nil, false, err
			}
			// Re-check after the RPC: a prefetched page racing Commit must
			// not be delivered. Commit flips done before it resolves any
			// intent, so a page evaluated after resolution — at a snapshot
			// where the transaction's own writes are no longer visible —
			// always observes done here and errors instead of shipping a
			// silently inconsistent page; a page that raced the flip but
			// was evaluated before resolution still saw the intents.
			if t.done.Load() {
				return nil, nil, false, ErrTxnDone
			}
			spec.observePage(resp)
			return resp.KVs, resp.Next, resp.More, nil
		})
}

// ScanCursors opens one cursor per shard in [0, shards) with the same
// spec. Opening a cursor never blocks — the routing lookup and first-page
// RPC run on the cursor's prefetch goroutine, which starts at creation —
// so by the time this returns, all K shards' first pages are in flight
// concurrently and the merge's first refill costs one (maximum) round
// trip instead of K serial ones. With prefetching disabled the cursors
// stay fully lazy by design: nothing is fetched until demanded. Shards with
// buffered writes are flushed first, concurrently (see ScanCursor).
func (t *Txn) ScanCursors(ctx context.Context, shards int, spec ScanSpec) []BatchCursor {
	out := make([]BatchCursor, shards)
	if err := t.flushAll(ctx); err != nil {
		for shard := range out {
			out[shard] = &ScanCursor{err: err}
		}
		return out
	}
	for shard := range out {
		out[shard] = t.ScanCursor(ctx, shard, spec)
	}
	return out
}

// ScanCursor returns a paged cursor over the spec's range on one shard at
// the query's snapshot, served by the skyline-selected node with a
// per-page fallback to the primary when a replica fails mid-scan. Any
// attached fragment runs on whichever node serves the page — the fragment
// carries the snapshot-independent plan and the request carries the
// snapshot, so replica execution at the RCP is identical to primary
// execution. ctx bounds the cursor's background prefetching.
func (r *ROTxn) ScanCursor(ctx context.Context, shard int, spec ScanSpec) *ScanCursor {
	if r.oneRead {
		return &ScanCursor{err: ErrOneRead} // a scan may read many times
	}
	return newScanCursor(ctx, spec.Start, spec.Limit, spec.PageSize, spec.window(), spec.Counters,
		func(ctx context.Context, from []byte, remaining, page int) ([]mvcc.KV, []byte, bool, error) {
			node, replica, err := r.pick(shard)
			if err != nil {
				return nil, nil, false, err
			}
			t0 := time.Now()
			rpc := obs.SpanFrom(ctx).Child("scan-page")
			rpc.Tag("shard=%d node=%s", shard, node)
			resp, err := r.cn.client.ScanPageFrag(ctx, node, from, spec.End, r.snap, remaining, page, spec.Frag, 0)
			if err != nil && ctx.Err() != nil {
				rpc.End()
				// The cursor canceled this RPC (Close, or the consumer's
				// context) — the normal end of an early-terminated prefetch,
				// not a node failure. Don't poison the skyline tracker by
				// marking the replica failed, and don't retry the primary on
				// a context that is already dead.
				return nil, nil, false, err
			}
			r.observe(node, replica, t0, err)
			if nodeFailed(err) && replica {
				r.cn.primaryReads.Add(1)
				primary := r.cn.routing.Primary(shard)
				rpc.Tag("shard=%d node=%s (replica %s failed)", shard, primary, node)
				resp, err = r.cn.client.ScanPageFrag(ctx, primary, from, spec.End, r.snap, remaining, page, spec.Frag, 0)
			}
			rpc.AddDNExec(time.Duration(resp.ExecNanos))
			rpc.End()
			if err != nil {
				return nil, nil, false, err
			}
			spec.observePage(resp)
			return resp.KVs, resp.Next, resp.More, nil
		})
}

// ScanCursors opens one cursor per shard in [0, shards); the per-shard
// replica selection (RCP-governed skyline pick) and first-page RPCs run
// concurrently on the cursors' prefetch goroutines — see Txn.ScanCursors.
func (r *ROTxn) ScanCursors(ctx context.Context, shards int, spec ScanSpec) []BatchCursor {
	out := make([]BatchCursor, shards)
	for shard := range out {
		out[shard] = r.ScanCursor(ctx, shard, spec)
	}
	return out
}

// MergedCursor merges several batch streams into one in ascending key
// order — the cross-shard merge that turns per-shard paged scans into a
// single table-wide scan in primary-key order. It moves batch references:
// each NextBatch emits the longest prefix of the leading shard's current
// batch whose keys precede every other shard's head, splitting a page only
// at a genuine shard-interleave boundary rather than re-copying rows one
// by one. With prefetching children the first refill round resolves in one
// (maximum) round trip: every child's first page is already in flight when
// the merge first asks.
type MergedCursor struct {
	children []BatchCursor
	heads    [][]mvcc.KV // unconsumed remainder of each child's batch
	alive    []bool
	inited   bool
	batch    []mvcc.KV
	err      error
}

// MergeCursors combines batch cursors in ascending key order. The inputs
// must each yield keys in ascending order (as ScanCursor does). Ties
// between shards break toward the lower-index child, matching row-at-a-time
// merge order.
func MergeCursors(children ...BatchCursor) *MergedCursor {
	return &MergedCursor{
		children: children,
		heads:    make([][]mvcc.KV, len(children)),
		alive:    make([]bool, len(children)),
	}
}

// refill pulls child i's next batch if its current one is consumed.
func (m *MergedCursor) refill(ctx context.Context, i int) {
	if !m.alive[i] || len(m.heads[i]) > 0 {
		return
	}
	if m.children[i].NextBatch(ctx) {
		m.heads[i] = m.children[i].Batch()
		return
	}
	m.alive[i] = false
	if err := m.children[i].Err(); err != nil && m.err == nil {
		m.err = err
	}
}

// NextBatch implements BatchCursor.
func (m *MergedCursor) NextBatch(ctx context.Context) bool {
	if m.err != nil {
		return false
	}
	if !m.inited {
		m.inited = true
		for i := range m.alive {
			m.alive[i] = true
		}
	}
	for i := range m.children {
		m.refill(ctx, i)
		if m.err != nil {
			return false
		}
	}
	// Pick the child whose head key is smallest (lowest index on ties).
	best := -1
	for i, h := range m.heads {
		if len(h) == 0 {
			continue
		}
		if best < 0 || bytes.Compare(h[0].Key, m.heads[best][0].Key) < 0 {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	// Emit the run of the best child's keys that precede every other head.
	var minOther []byte
	haveOther := false
	for i, h := range m.heads {
		if i == best || len(h) == 0 {
			continue
		}
		if !haveOther || bytes.Compare(h[0].Key, minOther) < 0 {
			minOther, haveOther = h[0].Key, true
		}
	}
	h := m.heads[best]
	run := len(h)
	if haveOther {
		run = sort.Search(len(h), func(i int) bool { return bytes.Compare(h[i].Key, minOther) >= 0 })
		if run == 0 {
			run = 1 // head ties another shard: emit it alone, lower index first
		}
	}
	m.batch = h[:run]
	m.heads[best] = h[run:]
	return true
}

// Batch implements BatchCursor.
func (m *MergedCursor) Batch() []mvcc.KV { return m.batch }

// Err implements BatchCursor.
func (m *MergedCursor) Err() error { return m.err }

// Close implements BatchCursor.
func (m *MergedCursor) Close() {
	for _, c := range m.children {
		c.Close()
	}
}

// AggMergeCursor coalesces runs of equal keys in an already key-ordered
// batch stream, combining their values with a caller-supplied merge
// function. This is the coordinator's CN-final half of aggregate pushdown:
// each shard returns per-group partial states keyed by a memcomparable
// group key, MergeCursors interleaves them in key order (equal groups
// adjacent), and this cursor merges the adjacent partials into one state
// per group. A group is emitted only once a strictly greater key (or end
// of stream) proves it complete, so groups spanning shard-batch boundaries
// are never split.
type AggMergeCursor struct {
	child        BatchCursor
	merge        func(a, b []byte) ([]byte, error)
	out          []mvcc.KV // reused output buffer; valid until next NextBatch
	pending      mvcc.KV
	havePending  bool
	pendingOwned bool // pending no longer aliases the child's batch
	done         bool
	err          error
}

// MergeAggregates wraps a key-ordered batch cursor of per-shard partial
// rows, yielding exactly one pair per distinct key with values combined by
// merge. A child error suppresses the group being assembled — a partial
// aggregate missing one shard's contribution would be silently wrong.
func MergeAggregates(child BatchCursor, merge func(a, b []byte) ([]byte, error)) *AggMergeCursor {
	return &AggMergeCursor{child: child, merge: merge}
}

// NextBatch implements BatchCursor.
func (m *AggMergeCursor) NextBatch(ctx context.Context) bool {
	if m.err != nil || m.done {
		return false
	}
	m.out = m.out[:0]
	for {
		// The group being assembled is about to outlive the child's
		// current batch (the refill below invalidates it), so take
		// ownership of its bytes first.
		if m.havePending && !m.pendingOwned {
			m.pending.Key = bytes.Clone(m.pending.Key)
			m.pending.Value = bytes.Clone(m.pending.Value)
			m.pendingOwned = true
		}
		if !m.child.NextBatch(ctx) {
			if err := m.child.Err(); err != nil {
				m.err = err
				return false
			}
			m.done = true
			if m.havePending {
				m.out = append(m.out, m.pending)
				m.havePending = false
			}
			return len(m.out) > 0
		}
		for _, kv := range m.child.Batch() {
			if m.havePending && bytes.Equal(kv.Key, m.pending.Key) {
				merged, err := m.merge(m.pending.Value, kv.Value)
				if err != nil {
					m.err = err
					return false
				}
				m.pending.Value = merged
				continue
			}
			if m.havePending {
				m.out = append(m.out, m.pending)
			}
			m.pending, m.havePending, m.pendingOwned = kv, true, false
		}
		// Groups closed within this child batch are ready; the last one
		// stays pending until a greater key or end of stream closes it.
		if len(m.out) > 0 {
			return true
		}
	}
}

// Batch implements BatchCursor.
func (m *AggMergeCursor) Batch() []mvcc.KV { return m.out }

// Err implements BatchCursor.
func (m *AggMergeCursor) Err() error { return m.err }

// Close implements BatchCursor.
func (m *AggMergeCursor) Close() { m.child.Close() }

// ScanRowsFetched reports the rows this CN has received in scan responses,
// one layer above the storage engines' own RowsScanned counters.
func (c *CN) ScanRowsFetched() int64 { return c.client.ScanRowsFetched() }
