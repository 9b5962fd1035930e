package datanode

import (
	"bytes"
	"context"
	"sort"
	"sync"

	"globaldb/gsql/fragment"
	"globaldb/internal/keys"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
)

// This file is the data-node side of GlobalDB's distributed execution
// split: a ScanPageReq may carry an encoded plan fragment (filter +
// projection + partial aggregates, see globaldb/gsql/fragment), and the
// node evaluates it here, next to the data, so only qualifying or
// pre-aggregated tuples cross the WAN back to the computing node. The
// executor is stateless across requests — every page request re-decodes
// the fragment and resumes from the request's start key — and snapshot
// semantics come for free from the store's MVCC ScanPage, so the same code
// serves primaries (with read-own-writes and RCP replicas).
//
// Execution is batch-native, and storage is read in one place: pageWalk
// fetches each storage page (on an index fragment, the rows its entries
// name, read at the same snapshot), decodes the columns the fragment needs
// once into a column-major fragment.RowBatch backed by a pooled arena, and
// runs the filter over it, producing a selection vector. Each shape then works
// on the survivors under its own budget and resume rules: a plain scan
// ships them (stored values as they are, projections re-encoded into one
// page buffer), a lookup join reads their inner rows and ships joined rows,
// an aggregate folds them into per-group states. What a shipped row
// carries is the fragment's Layout, encoded with RowBatch.AppendCols — the
// computing node decodes it with the same Layout — and every key or value
// goes through table.AppendValue. No per-row []any allocation anywhere on
// the hot path.

const (
	// fragScanBatch is how many storage rows the fragment executor pulls
	// per internal storage page — the row budget that bounds per-iteration
	// memory regardless of how much of the shard one RPC walks.
	fragScanBatch = 512
	// fragExamineBudget caps the storage rows one filter-pushdown RPC may
	// examine, so a highly selective predicate cannot turn a single request
	// into an unbounded full-shard walk; the request returns a resume key
	// and the cursor follows up. Aggregate fragments are exempt: they hold
	// only O(groups) state and must consume the whole range to produce a
	// mergeable partial.
	fragExamineBudget = 4096
)

// arenaPool recycles batch arenas across scan RPCs; an arena's slabs reach
// steady-state capacity after the first page and are then reused for every
// subsequent page and request.
//
// Recycling is safe even though the coordinator pipelines page requests
// (page N may still be consumed at the CN while page N+1 executes here and
// takes an arena from the pool — possibly the same one): a response never
// aliases arena memory. Shipped keys slice the immutable MVCC store, raw
// and filtered values slice the store too, and projected values are
// sliced out of a per-request encode buffer allocated in this call (see
// finishFragPage). Arenas only back the decoded column batches — the
// scanned page, and a lookup join's matched inner rows — used transiently
// for filter/projection/aggregate evaluation and re-encoding.
var arenaPool = sync.Pool{New: func() any { return fragment.NewArena() }}

// execFragScanPage serves one paged scan request that carries a fragment.
// It returns the page, plus the count of storage rows examined so the
// computing node can account rows filtered out DN-side, and the newest
// version the walk read.
func execFragScanPage(ctx context.Context, store *mvcc.Store, req ScanPageReq, reader mvcc.TxnID) (resp ScanPageResp, err error) {
	frag, err := fragment.Decode(req.Frag)
	if err != nil {
		return ScanPageResp{}, err
	}
	arena := arenaPool.Get().(*fragment.Arena)
	defer arenaPool.Put(arena)
	outBudget := pageLimit(req.Limit, req.MaxPage)
	w := &pageWalk{ctx: ctx, store: store, req: req, reader: reader, frag: frag, arena: arena,
		need: frag.NeededCols(), start: req.Start, rows: fragScanBatch}
	defer func() { resp.Newest = w.newest }()
	if frag.HasAggs() {
		return execFragAggregate(w)
	}
	// The internal storage page starts near the output budget — a selective
	// LIMIT then reads O(k) storage rows, not a full batch — and grows as
	// the filter keeps dropping rows.
	w.rows = min(max(outBudget, 16), fragScanBatch)
	if frag.Lookup != nil {
		return execFragLookupJoin(w, outBudget)
	}
	examined := 0
	var out []mvcc.KV
	// Projected page values are encoded into one buffer per page and sliced
	// per row after the page settles (appends may relocate the buffer, so
	// only offsets are recorded during the walk). Without a projection the
	// stored value itself is shipped.
	var pageEnc *keys.Encoder
	var valOffs []int
	var cols []int
	if frag.Project != nil {
		pageEnc = keys.NewEncoder(0)
		lay := frag.Layout()
		cols = lay.OuterCols()
	}
	for {
		// Filter the batch, stopping exactly when the output budget is met
		// so examined-row accounting matches row-at-a-time execution.
		pg, err := w.next(outBudget - len(out))
		if err != nil {
			return ScanPageResp{}, err
		}
		examined += pg.evaluated
		for _, r := range pg.sel {
			kv := mvcc.KV{Key: pg.kvs[r].Key, Value: pg.kvs[r].Value}
			if pageEnc != nil {
				valOffs = append(valOffs, len(pageEnc.Bytes()))
				if err := pg.batch.AppendCols(pageEnc, r, cols); err != nil {
					return ScanPageResp{}, err
				}
				kv.Value = nil // sliced out of the page buffer below
			}
			out = append(out, kv)
		}
		if len(out) >= outBudget {
			// The page is full mid-range: resume at the successor of the
			// last shipped key (the same resume convention as
			// mvcc.ScanPage).
			last := pg.evaluated - 1 // FilterBatch stops on the kept row
			if last+1 < len(pg.kvs) || pg.more {
				resume := append(bytes.Clone(pg.kvs[last].Key), 0x00)
				if req.End == nil || bytes.Compare(resume, req.End) < 0 {
					return finishFragPage(out, pageEnc, valOffs, resume, true, examined), nil
				}
			}
			return finishFragPage(out, pageEnc, valOffs, nil, false, examined), nil
		}
		if !pg.more {
			return finishFragPage(out, pageEnc, valOffs, nil, false, examined), nil
		}
		if examined >= fragExamineBudget {
			// Work budget exhausted with the output page still open: hand
			// the resume key back so the next RPC continues the walk.
			return finishFragPage(out, pageEnc, valOffs, pg.next, true, examined), nil
		}
	}
}

// pageWalk is the one place a fragment request reads storage: it fetches
// the next storage page, decodes the columns the fragment needs into the
// arena's batch and runs the filter over it. Each shape applies its own
// budget, resume and accounting rules to the pages it gets.
type pageWalk struct {
	ctx    context.Context
	store  *mvcc.Store
	req    ScanPageReq
	reader mvcc.TxnID
	frag   *fragment.Fragment
	arena  *fragment.Arena
	need   []bool // Fragment.NeededCols: the rest are skipped byte-wise
	start  []byte // where the next page starts
	rows   int    // storage rows the next page reads
	// newest is the highest commit timestamp among the versions the walk
	// has read, outer and inner rows alike (ScanPageResp.Newest).
	newest ts.Timestamp
}

// walkedPage is one storage page, decoded and filtered.
type walkedPage struct {
	kvs       []mvcc.KV
	batch     *fragment.RowBatch // valid until the walk's next page
	sel       []int              // rows the filter kept
	evaluated int                // rows the filter evaluated
	next      []byte             // resume key after this page
	more      bool               // storage holds rows past next
}

// next reads, decodes and filters the next storage page, stopping once
// maxKeep rows are kept (0 evaluates the whole page). The page size grows
// fourfold per page up to fragScanBatch, mirroring the coordinator
// cursor's adaptive page growth.
func (w *pageWalk) next(maxKeep int) (walkedPage, error) {
	kvs, next, more, newest, err := w.store.ScanPageNewest(w.ctx, w.start, w.req.End, w.req.SnapTS, w.rows, w.reader)
	w.newest = max(w.newest, newest)
	if err == nil && w.frag.Index {
		kvs, err = w.rowsOf(kvs)
	}
	if err != nil {
		return walkedPage{}, err
	}
	w.start = next
	w.rows = min(4*w.rows, fragScanBatch)
	batch := w.arena.NewBatch(w.frag.Kinds, len(kvs))
	for i := range kvs {
		if err := batch.AppendStoredNeeded(kvs[i].Value, w.need); err != nil {
			return walkedPage{}, err
		}
	}
	sel, evaluated, err := w.frag.FilterBatch(batch, 0, maxKeep, w.arena.Sel(len(kvs)))
	if err != nil {
		return walkedPage{}, err
	}
	return walkedPage{kvs: kvs, batch: batch, sel: sel, evaluated: evaluated, next: next, more: more}, nil
}

// rowsOf replaces each index entry's value, a primary key, with the row it
// names at the request's snapshot. The entry keeps its key, so resume keys
// stay in the index; an entry whose row is missing is dropped. It is a
// function of its own so that the walk's stack frame stays the size it is
// for every other shape.
func (w *pageWalk) rowsOf(kvs []mvcc.KV) ([]mvcc.KV, error) {
	rows := kvs[:0]
	for _, kv := range kvs {
		v, found, err := w.store.GetVersion(w.ctx, kv.Value, w.req.SnapTS, w.reader)
		if err != nil {
			return nil, err
		}
		w.newest = max(w.newest, v.CommitTS)
		if found && !v.Deleted {
			rows = append(rows, mvcc.KV{Key: kv.Key, Value: v.Value})
		}
	}
	return rows, nil
}

// finishFragPage slices projected values out of the settled page buffer
// (offset i to offset i+1) and assembles the response.
func finishFragPage(out []mvcc.KV, pageEnc *keys.Encoder, valOffs []int, next []byte, more bool, examined int) ScanPageResp {
	if pageEnc != nil {
		buf := pageEnc.Bytes()
		for i := range out {
			end := len(buf)
			if i+1 < len(valOffs) {
				end = valOffs[i+1]
			}
			out[i].Value = buf[valOffs[i]:end]
		}
	}
	return ScanPageResp{KVs: out, Next: next, More: more, Examined: examined}
}

// execFragLookupJoin serves one page of a pushed lookup join: for every
// outer row the fragment's filter keeps, it evaluates the key expressions,
// reads the matching inner-table rows from the same store (the planner only
// pushes co-located joins), and ships already-joined rows — outer projected
// columns followed by the shipped inner columns in one encoded value. The
// join's WAN cost is O(matching output); the inner reads stay node-side and
// are reported in Looked.
//
// Page breaks happen only at outer-row boundaries: when the output budget
// fills, the current outer row becomes the resume key (re-included, not
// skipped) and Examined covers only the rows strictly before it, so
// re-scanned rows are never double-counted. A page may therefore overshoot
// the budget by one outer row's fan-out.
func execFragLookupJoin(w *pageWalk, outBudget int) (ScanPageResp, error) {
	frag, lk := w.frag, w.frag.Lookup
	lay := frag.Layout()
	outerCols, innerCols := lay.OuterCols(), lay.InnerCols()
	// Matched inner rows decode into a batch of their own.
	innerArena := arenaPool.Get().(*fragment.Arena)
	defer arenaPool.Put(innerArena)
	examined, looked := 0, 0
	var out []mvcc.KV
	pageEnc := keys.NewEncoder(0) // joined values are always re-encoded
	var valOffs []int
	keyEnc := keys.NewEncoder(64)
	outerEnc := keys.NewEncoder(64)
	keyVals := make([][]any, len(lk.KeyExprs))
	coerced := make([]any, len(lk.KeyExprs))
	for {
		// The budget applies to joined output rows, so the filter always
		// evaluates the whole batch (no maxKeep).
		pg, err := w.next(0)
		if err != nil {
			return ScanPageResp{}, err
		}
		sel, kvs := pg.sel, pg.kvs
		// Evaluate every key expression over the surviving rows at once.
		for j := range lk.KeyExprs {
			if cap(keyVals[j]) < len(sel) {
				keyVals[j] = make([]any, len(sel))
			}
			keyVals[j] = keyVals[j][:len(sel)]
			if err := fragment.EvalBatch(&lk.KeyExprs[j], pg.batch, sel, keyVals[j]); err != nil {
				return ScanPageResp{}, err
			}
		}
		resumeAt := -1
		for i, r := range sel {
			if len(out) >= outBudget {
				resumeAt = r
				break
			}
			// A NULL key value matches nothing (SQL equality is never TRUE
			// against NULL); an uncoercible type is a query error, exactly as
			// the computing node's own key-access path would report.
			nullKey := false
			for j := range coerced {
				cv, err := fragment.CoerceKey(lk.KeyKinds[j], keyVals[j][i])
				if err != nil {
					return ScanPageResp{}, err
				}
				if cv == nil {
					nullKey = true
					break
				}
				coerced[j] = cv
			}
			if nullKey {
				continue
			}
			// The key is the inner table's primary-key prefix of the coerced
			// values, encoded as the table layer encodes primary keys.
			keyEnc.Reset()
			keyEnc.AppendRaw(lk.Prefix)
			for _, cv := range coerced {
				if err := table.AppendValue(keyEnc, cv); err != nil {
					return ScanPageResp{}, err
				}
			}
			innerKey := keyEnc.Bytes()
			ikvs, _, _, newest, err := w.store.ScanPageNewest(w.ctx, innerKey, keys.PrefixEnd(innerKey), w.req.SnapTS, 0, w.reader)
			if err != nil {
				return ScanPageResp{}, err
			}
			w.newest = max(w.newest, newest)
			looked += len(ikvs)
			if len(ikvs) == 0 {
				continue
			}
			// Mirror the computing node's residual equality check on the rows
			// found: the stored key values equal the coerced values
			// byte-for-byte (exact-prefix scan), so one comparison per outer
			// row covers every match — and a cross-type comparison errors only
			// when at least one inner row matched, as the residual would.
			skipMatches := false
			for j := range coerced {
				c, err := fragment.Compare(coerced[j], keyVals[j][i])
				if err != nil {
					return ScanPageResp{}, err
				}
				if c != 0 {
					skipMatches = true
					break
				}
			}
			if skipMatches {
				continue
			}
			// The outer segment is identical for every match of this outer
			// row: encode it once and splice the bytes per joined row, so a
			// high fan-out costs one outer encode, not one per match.
			outerEnc.Reset()
			if err := pg.batch.AppendCols(outerEnc, r, outerCols); err != nil {
				return ScanPageResp{}, err
			}
			inner := innerArena.NewBatch(lk.Kinds, len(ikvs))
			for m := range ikvs {
				if err := inner.AppendStored(ikvs[m].Value); err != nil {
					return ScanPageResp{}, err
				}
				valOffs = append(valOffs, len(pageEnc.Bytes()))
				pageEnc.AppendRaw(outerEnc.Bytes())
				if err := inner.AppendCols(pageEnc, m, innerCols); err != nil {
					return ScanPageResp{}, err
				}
				out = append(out, mvcc.KV{Key: kvs[r].Key})
			}
		}
		if resumeAt >= 0 {
			examined += resumeAt // rows before the resume row are consumed
			resume := bytes.Clone(kvs[resumeAt].Key)
			resp := finishFragPage(out, pageEnc, valOffs, resume, true, examined)
			resp.Looked = looked
			return resp, nil
		}
		examined += len(kvs)
		if len(out) >= outBudget || !pg.more {
			resp := finishFragPage(out, pageEnc, valOffs, pg.next, pg.more, examined)
			resp.Looked = looked
			return resp, nil
		}
		if examined+looked >= fragExamineBudget {
			resp := finishFragPage(out, pageEnc, valOffs, pg.next, true, examined)
			resp.Looked = looked
			return resp, nil
		}
	}
}

// execFragAggregate folds the entire requested range into per-group
// partial aggregate states and returns them as one page of
// (group key, encoded states) pairs in group-key order — O(groups) rows
// over the WAN instead of O(matching rows). Group keys are memcomparable,
// so the coordinator's cross-shard merge cursor sees equal groups from
// different shards adjacent and combines their states.
func execFragAggregate(w *pageWalk) (ScanPageResp, error) {
	type group struct {
		key    []byte
		states []fragment.AggState
	}
	frag := w.frag
	lay := frag.Layout()
	groupCols := lay.OuterCols()
	groups := map[string]*group{}
	gids := make([]*group, 0, fragScanBatch) // group of each selected row
	keyEnc := keys.NewEncoder(64)
	examined := 0
	for {
		pg, err := w.next(0)
		if err != nil {
			return ScanPageResp{}, err
		}
		examined += pg.evaluated
		// Resolve each surviving row's group once: the key is encoded into
		// a reused buffer and only cloned when a new group appears.
		gids = gids[:0]
		for _, r := range pg.sel {
			keyEnc.Reset()
			if err := pg.batch.AppendCols(keyEnc, r, groupCols); err != nil {
				return ScanPageResp{}, err
			}
			g := groups[string(keyEnc.Bytes())]
			if g == nil {
				gkey := bytes.Clone(keyEnc.Bytes())
				g = &group{key: gkey, states: make([]fragment.AggState, len(frag.Aggs))}
				groups[string(gkey)] = g
			}
			gids = append(gids, g)
		}
		// Fold slot by slot: evaluate the argument over the whole selection
		// at once, then accumulate each value into its row's group state.
		for s, spec := range frag.Aggs {
			if spec.Star {
				for i := range gids {
					gids[i].states[s].Count++
				}
				continue
			}
			vals := w.arena.Out(len(pg.sel))
			if err := fragment.EvalBatch(spec.Arg, pg.batch, pg.sel, vals); err != nil {
				return ScanPageResp{}, err
			}
			for i, g := range gids {
				if err := g.states[s].Fold(spec.Kind, vals[i]); err != nil {
					return ScanPageResp{}, err
				}
			}
		}
		if !pg.more {
			break
		}
	}
	out := make([]mvcc.KV, 0, len(groups))
	for _, g := range groups {
		val, err := fragment.EncodeStates(g.states)
		if err != nil {
			return ScanPageResp{}, err
		}
		out = append(out, mvcc.KV{Key: g.key, Value: val})
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Key, out[j].Key) < 0 })
	return ScanPageResp{KVs: out, Next: nil, More: false, Examined: examined}, nil
}
