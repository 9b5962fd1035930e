package gsql

import (
	"context"
	"fmt"
	"strings"

	"globaldb"
	"globaldb/gsql/fragment"
	"globaldb/internal/keys"
	"globaldb/internal/table"
)

// This file is the distributed join engine. planSelect calls analyzeJoin
// after analyzePushdown; it decides which physical join strategies a
// two-table plan can execute with and precompiles what each needs:
//
//   - lookup-pushdown: the inner side is a PK lookup keyed by outer
//     columns on the same shard as the outer row, so the whole join
//     serializes into the outer scan's fragment (fragment.Lookup). Data
//     nodes run the inner lookup next to the data and ship joined rows —
//     the WAN carries O(matching) rows instead of the inner table.
//   - hash: the CN materializes the inner side once, builds a hash table
//     over the equi-join keys, and probes it with outer batches —
//     replacing the per-outer-row rescans of the nested loop when no
//     co-located lookup exists.
//   - nested-loop: the always-correct fallback (and the differential
//     oracle's shape).
//
// The strategy actually used is resolved per execution from the session's
// SET JOIN mode and, under AUTO, the catalog's row-count estimates.

// joinStrategy is a physical join strategy (or AUTO, the session default).
type joinStrategy uint8

const (
	joinAuto joinStrategy = iota
	joinNestLoop
	joinLookup
	joinHash
)

// String renders the strategy the way EXPLAIN and Result.JoinStrategy
// report it.
func (s joinStrategy) String() string {
	switch s {
	case joinAuto:
		return "auto"
	case joinNestLoop:
		return "nested-loop"
	case joinLookup:
		return "lookup-pushdown"
	case joinHash:
		return "hash"
	default:
		return fmt.Sprintf("joinStrategy(%d)", uint8(s))
	}
}

// Keyword renders the strategy as the SET JOIN keyword.
func (s joinStrategy) Keyword() string {
	switch s {
	case joinNestLoop:
		return "NESTLOOP"
	case joinLookup:
		return "LOOKUP"
	case joinHash:
		return "HASH"
	default:
		return "AUTO"
	}
}

// parseJoinStrategy maps a SET JOIN keyword to a strategy.
func parseJoinStrategy(kw string) (joinStrategy, bool) {
	switch strings.ToUpper(kw) {
	case "AUTO":
		return joinAuto, true
	case "NESTLOOP":
		return joinNestLoop, true
	case "LOOKUP":
		return joinLookup, true
	case "HASH":
		return joinHash, true
	default:
		return joinAuto, false
	}
}

// joinPlan is the join-strategy analysis of a two-table plan: which
// strategies beyond nested-loop are available, precompiled.
type joinPlan struct {
	lookup *lookupJoin
	hash   *hashJoin
}

// lookupJoin is the pushed lookup-join template: the outer fragment with
// fragment.Lookup attached (placeholders still OpParam; bound per
// execution) and the residual filter the CN still evaluates on joined
// rows. The ON equality conjuncts the lookup key enforces are removed
// from the residual — the data node's key encoding plus its post-scan
// value check reproduce their semantics exactly.
type lookupJoin struct {
	frag     *fragment.Fragment
	cnFilter Expr

	// describe-only fields (EXPLAIN).
	keyCols     []string
	pushedExprs []Expr
}

// hashJoin is the CN hash-join layout: the build-side access path (never
// referencing outer rows) and the equi-join key column pairs. floatKey
// marks pairs encoded float-normalized so BIGINT/DOUBLE mixes hash
// identically to SQL comparison.
type hashJoin struct {
	build     *tableScan
	outerCols []int
	innerCols []int
	floatKey  []bool
	keyDesc   []string // describe-only
}

// analyzeJoin decides the physical join strategies available to a
// two-table plan. Nested-loop is always available and not represented.
func analyzeJoin(p *selectPlan) *joinPlan {
	if p.inner == nil {
		return nil
	}
	jp := &joinPlan{lookup: analyzeLookupJoin(p), hash: analyzeHashJoin(p)}
	if jp.lookup == nil && jp.hash == nil {
		return nil
	}
	return jp
}

// analyzeLookupJoin builds the pushed lookup-join template when the plan
// qualifies: the inner side is a PK point/prefix lookup whose key
// expressions compile to fragment expressions over the outer row, the
// inner shard column is keyed by the outer table's shard column (same
// kind), and the outer scan itself accepts fragments. The co-location
// argument: shards hash the distribution value alone, so an inner row
// whose shard value equals the outer row's lives on the same shard — the
// data node serving the outer page can serve the lookup locally.
func analyzeLookupJoin(p *selectPlan) *lookupJoin {
	inner, outer := p.inner, p.outer
	if inner.kind != accessPoint && inner.kind != accessPKPrefix {
		return nil
	}
	if outer.kind != accessFull && outer.kind != accessPKPrefix {
		return nil
	}
	osch, isch := outer.tab.schema, inner.tab.schema
	boundPK := isch.PK[:len(inner.keyExprs)]

	// Co-location gate: the inner shard column must be keyed by the outer
	// shard column, with equal kinds so coercion cannot move the value to
	// a different shard's hash.
	shardPos := -1
	for i, c := range boundPK {
		if c == isch.ShardBy {
			shardPos = i
		}
	}
	if shardPos < 0 {
		return nil
	}
	cr, ok := inner.keyExprs[shardPos].(*ColRef)
	if !ok {
		return nil
	}
	ti, ci, err := resolveCol(cr, p.tables)
	if err != nil || ti != 0 || ci != osch.ShardBy {
		return nil
	}
	if isch.Columns[isch.ShardBy].Kind != osch.Columns[osch.ShardBy].Kind {
		return nil
	}

	outerOnly := &layout{tables: p.tables, scope: 1}
	keyExprs, err := lowerList(inner.keyExprs, outerOnly)
	if err != nil {
		return nil
	}

	// The ON conjuncts whose equality the encoded key enforces leave the
	// residual. A conjunct is consumed when it is `inner.pkCol = expr`
	// with expr being the very node the access path chose as that
	// column's key (pointer identity — extractEq stores the conjunct's
	// own value side).
	consumed := map[Expr]bool{}
	for _, c := range conjuncts(p.filter) {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		for _, side := range [2][2]Expr{{b.Left, b.Right}, {b.Right, b.Left}} {
			ccr, ok := side[0].(*ColRef)
			if !ok {
				continue
			}
			cti, cci, err := resolveCol(ccr, p.tables)
			if err != nil || cti != 1 {
				continue
			}
			for i, pkCol := range boundPK {
				if pkCol == cci && inner.keyExprs[i] == side[1] {
					consumed[c] = true
				}
			}
			if consumed[c] {
				break
			}
		}
	}

	// Split the rest of the filter: outer-only conjuncts run DN-side in
	// the fragment; everything else stays on the CN over joined rows.
	var pushed []fragment.Expr
	var pushedSrc []Expr
	var residual []Expr
	for _, c := range conjuncts(p.filter) {
		if consumed[c] {
			continue
		}
		if fe, err := lowerExpr(c, outerOnly); err == nil {
			pushed = append(pushed, fe)
			pushedSrc = append(pushedSrc, c)
		} else {
			residual = append(residual, c)
		}
	}
	cnFilter := andAll2(residual)

	// Column shipping: the CN needs what outputs, residual filter,
	// ORDER BY, HAVING and GROUP BY reference — per side. The lookup key
	// expressions are evaluated on the data node over the full decoded
	// outer row, so their columns need not ship.
	oneed := map[int]bool{}
	ineed := map[int]bool{}
	collect := func(e Expr) {
		collectColsOf(e, p.tables, 0, oneed)
		collectColsOf(e, p.tables, 1, ineed)
	}
	for _, e := range p.outExprs {
		collect(e)
	}
	collect(cnFilter)
	for _, o := range p.orderBy {
		collect(o.Expr)
	}
	collect(p.having)
	for _, g := range p.groupBy {
		collect(g)
	}
	var oproj []int
	if len(oneed) < len(osch.Columns) {
		oproj = sortedCols(oneed)
		if len(oproj) == 0 {
			// Keep one column so shipped values stay non-empty.
			oproj = []int{0}
		}
	}
	var iproj []int
	if len(ineed) < len(isch.Columns) {
		iproj = sortedCols(ineed) // may be empty: semi-join shape
	}

	okinds := make([]table.Kind, len(osch.Columns))
	for i, c := range osch.Columns {
		okinds[i] = c.Kind
	}
	ikinds := make([]table.Kind, len(isch.Columns))
	for i, c := range isch.Columns {
		ikinds[i] = c.Kind
	}
	keyKinds := make([]table.Kind, len(boundPK))
	keyCols := make([]string, len(boundPK))
	for i, c := range boundPK {
		keyKinds[i] = isch.Columns[c].Kind
		keyCols[i] = isch.Columns[c].Name
	}

	frag := &fragment.Fragment{
		Kinds:   okinds,
		Filter:  andAll(pushed),
		Project: oproj,
		Lookup: &fragment.Lookup{
			Prefix:   isch.TablePrefix(),
			KeyExprs: keyExprs,
			KeyKinds: keyKinds,
			Kinds:    ikinds,
			Project:  iproj,
		},
	}
	return &lookupJoin{frag: frag, cnFilter: cnFilter, keyCols: keyCols, pushedExprs: pushedSrc}
}

// analyzeHashJoin extracts the equi-join key pairs a CN hash join can
// build on: ColRef = ColRef conjuncts with one side per table, over
// hash-compatible kinds. The build side is the inner table accessed
// without outer references (usually a full scan). The full residual
// filter is retained above the join, so the hash table is purely an
// accelerator — it may only drop pairs the filter would drop.
func analyzeHashJoin(p *selectPlan) *hashJoin {
	osch, isch := p.tables[0].schema, p.tables[1].schema
	var h hashJoin
	for _, c := range conjuncts(p.filter) {
		b, ok := c.(*BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		lcr, lok := b.Left.(*ColRef)
		rcr, rok := b.Right.(*ColRef)
		if !lok || !rok {
			continue
		}
		lti, lci, lerr := resolveCol(lcr, p.tables)
		rti, rci, rerr := resolveCol(rcr, p.tables)
		if lerr != nil || rerr != nil {
			continue
		}
		var oc, ic int
		switch {
		case lti == 0 && rti == 1:
			oc, ic = lci, rci
		case lti == 1 && rti == 0:
			oc, ic = rci, lci
		default:
			continue
		}
		ok, float := hashKeyKinds(osch.Columns[oc].Kind, isch.Columns[ic].Kind)
		if !ok {
			continue
		}
		h.outerCols = append(h.outerCols, oc)
		h.innerCols = append(h.innerCols, ic)
		h.floatKey = append(h.floatKey, float)
		h.keyDesc = append(h.keyDesc, osch.Columns[oc].Name+"="+isch.Columns[ic].Name)
	}
	if len(h.outerCols) == 0 {
		return nil
	}
	// Build-side access path: constant bindings only (outer = nil), so it
	// can be opened once, before any outer row exists.
	h.build = chooseAccess(p.tables[1], conjuncts(p.filter), p.tables, nil)
	return &h
}

// hashKeyKinds reports whether an equi-join over the two column kinds can
// be hashed, and whether the key must be float-normalized: SQL comparison
// equates BIGINT 5 with DOUBLE 5.0, so mixed (or float) pairs encode both
// sides as float64. String/Bytes mixes compare structurally but coerce
// asymmetrically, so they stay on the nested loop.
func hashKeyKinds(a, b table.Kind) (ok, float bool) {
	if a == b {
		return true, a == table.Float64
	}
	num := func(k table.Kind) bool { return k == table.Int64 || k == table.Float64 }
	if num(a) && num(b) {
		return true, true
	}
	return false, false
}

// collectColsOf records the column positions of table ti referenced by e.
func collectColsOf(e Expr, tables []*boundTable, ti int, into map[int]bool) {
	switch x := e.(type) {
	case *ColRef:
		t, ci, err := resolveCol(x, tables)
		if err == nil && t == ti {
			into[ci] = true
		}
	case *BinaryExpr:
		collectColsOf(x.Left, tables, ti, into)
		collectColsOf(x.Right, tables, ti, into)
	case *UnaryExpr:
		collectColsOf(x.X, tables, ti, into)
	case *IsNullExpr:
		collectColsOf(x.X, tables, ti, into)
	case *InExpr:
		collectColsOf(x.X, tables, ti, into)
		for _, it := range x.List {
			collectColsOf(it, tables, ti, into)
		}
	case *BetweenExpr:
		collectColsOf(x.X, tables, ti, into)
		collectColsOf(x.Lo, tables, ti, into)
		collectColsOf(x.Hi, tables, ti, into)
	case *FuncExpr:
		for _, a := range x.Args {
			collectColsOf(a, tables, ti, into)
		}
	}
}

// sortedCols returns the set's positions in ascending order.
func sortedCols(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for ci := range set {
		out = append(out, ci)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// autoHashFanFactor tunes AUTO's hash-vs-nested-loop choice for keyed
// inner access: materializing the inner build side pays off when the
// inner table is at most this many times the outer's size.
const autoHashFanFactor = 8

// autoLookupPrefixOuter tunes AUTO's lookup choice when the lookup binds
// only a PK prefix: each outer row then fans out to a DN-side range read
// and every joined row re-ships the outer columns, so pushing pays off
// once the outer is large enough that the nested loop's one-RPC-per-outer-
// row cost dominates. Below this many outer rows the nested loop's few
// pushed range scans are cheaper.
const autoLookupPrefixOuter = 64

// resolveJoin picks this execution's physical join strategy from the
// session mode, the available strategies, and — under AUTO — the
// catalog's row-count estimates. Pushdown-off executions always take the
// nested loop, which is the differential oracle's shape.
func (p *boundPlan) resolveJoin() joinStrategy {
	if p.inner == nil {
		return joinNestLoop
	}
	jp := p.join
	canLookup := jp != nil && jp.lookup != nil && !p.noPushdown
	canHash := jp != nil && jp.hash != nil && !p.noPushdown
	switch p.joinMode {
	case joinNestLoop:
		return joinNestLoop
	case joinLookup:
		if canLookup {
			return joinLookup
		}
		return joinNestLoop
	case joinHash:
		if canHash {
			return joinHash
		}
		return joinNestLoop
	}
	// AUTO: a co-located full-PK lookup is a point read per outer row and
	// ships O(matching) rows — always best. A prefix-bound lookup fans out
	// on the data node, so it wins only when the outer side is big enough
	// that per-outer-row RPCs (the nested loop's cost) would dominate.
	if canLookup {
		if p.inner.kind == accessPoint {
			return joinLookup
		}
		if p.rowEst == nil {
			return joinLookup
		}
		outerEst := p.rowEst(p.tables[0].schema.Name)
		if outerEst == 0 || outerEst > autoLookupPrefixOuter {
			return joinLookup
		}
	}
	if canHash {
		// A full-scan inner would be rescanned per outer row by the
		// nested loop; building once always wins. For keyed inner access
		// the hash build pays off only when the inner side is not much
		// larger than the outer.
		if p.inner.kind == accessFull {
			return joinHash
		}
		if p.rowEst != nil {
			innerEst := p.rowEst(p.tables[1].schema.Name)
			outerEst := p.rowEst(p.tables[0].schema.Name)
			if innerEst > 0 && outerEst > 0 && innerEst <= outerEst*autoHashFanFactor {
				return joinHash
			}
		}
	}
	return joinNestLoop
}

// describe renders the join analysis for EXPLAIN.
func (jp *joinPlan) describe(p *selectPlan) []string {
	avail := make([]string, 0, 3)
	if jp.lookup != nil {
		avail = append(avail, "lookup-pushdown")
	}
	if jp.hash != nil {
		avail = append(avail, "hash")
	}
	avail = append(avail, "nested-loop")
	out := []string{"  join strategies: " + strings.Join(avail, ", ")}
	if lk := jp.lookup; lk != nil {
		line := "  lookup-pushdown: inner " + p.tables[1].schema.Name +
			" keyed [" + strings.Join(lk.keyCols, ", ") + "] on data nodes"
		if len(lk.pushedExprs) > 0 {
			parts := make([]string, len(lk.pushedExprs))
			for i, e := range lk.pushedExprs {
				parts[i] = e.String()
			}
			line += ", dn-filter " + strings.Join(parts, " AND ")
		}
		if lk.cnFilter != nil {
			line += ", cn-residual " + lk.cnFilter.String()
		}
		out = append(out, line)
	}
	if h := jp.hash; h != nil {
		out = append(out, "  hash: build "+h.build.describe()+
			", keys ["+strings.Join(h.keyDesc, ", ")+"]")
	}
	return out
}

// ---- Executor ----

// openLookupRows opens the outer scan with the bound lookup fragment
// attached: the returned Rows yield combined joined rows (full outer
// width then full inner width) decoded by the fragment's JoinedDecoder.
func openLookupRows(ctx context.Context, r reader, p *boundPlan, fetchLimit, pageHint, prefetch int, frag *fragment.Fragment) (*globaldb.Rows, error) {
	s := p.outer
	opts := globaldb.ScanOpts{Limit: fetchLimit, PageSize: pageHint, Prefetch: prefetch,
		Range: scanRange(s, &p.x.outer, nil), Pushdown: frag}
	switch s.kind {
	case accessPKPrefix:
		keyVals, err := scanKey(s, &p.x.outer, nil)
		if err != nil {
			return nil, err
		}
		return r.ScanPKRows(ctx, s.tab.schema.Name, keyVals, opts)
	case accessFull:
		return r.ScanTableRows(ctx, s.tab.schema.Name, opts)
	default:
		return nil, fmt.Errorf("gsql: lookup join on unexpected outer access %v", s.kind)
	}
}

// lookupJoinIter adapts the fused lookup-join scan into two-table blocks:
// every combined row splits into its outer and inner views by
// sub-slicing — no copying, both halves share the batch's backing slab.
type lookupJoinIter struct {
	rows    *globaldb.Rows
	totals  *scanTotals
	counted bool
	outerW  int

	blk  rowBlock
	tabs [2][]table.Row
	ocol []table.Row
	icol []table.Row
}

func (s *lookupJoinIter) NextBlock(context.Context) (*rowBlock, error) {
	if !s.rows.NextBatch() {
		return nil, s.rows.Err()
	}
	batch := s.rows.Batch()
	if cap(s.ocol) < len(batch) {
		s.ocol = make([]table.Row, len(batch))
		s.icol = make([]table.Row, len(batch))
	}
	oc, ic := s.ocol[:len(batch)], s.icol[:len(batch)]
	for i, cr := range batch {
		oc[i] = cr[:s.outerW:s.outerW]
		ic[i] = cr[s.outerW:]
	}
	s.tabs[0], s.tabs[1] = oc, ic
	s.blk.tabs = s.tabs[:]
	return &s.blk, nil
}

func (s *lookupJoinIter) Close() {
	if !s.counted {
		s.counted = true
		if s.totals != nil {
			s.totals.s = s.totals.s.Add(s.rows.ScanStats())
		}
	}
	_ = s.rows.Close()
}

// hashJoinIter joins outer blocks against a hash table built once over
// the materialized inner side. Probing is block-native: each outer batch
// is probed row by row against the map, and every match list becomes one
// [outer fanned, inner matches] block. NULL keys never match (SQL
// equality), and the full residual filter above re-checks every pair, so
// the hash is an accelerator, never a semantic dependency.
type hashJoinIter struct {
	r      reader
	p      *boundPlan
	hj     *hashJoin
	outer  blockIter
	totals *scanTotals

	built bool
	tab   map[string][]table.Row
	enc   *keys.Encoder

	outerBlk *rowBlock
	oi       int
	curOuter table.Row
	matches  []table.Row
	mi       int

	blk      rowBlock
	tabs     [2][]table.Row
	outerRep []table.Row
}

// build materializes the inner side and hashes it by the join key. Rows
// referenced from blocks are retainable by contract (fresh slab per
// batch), so the table holds row references, not copies.
func (h *hashJoinIter) build(ctx context.Context) error {
	scan, err := openScan(ctx, h.r, h.hj.build, &h.p.x.build, nil, 0, 0, 0, nil, h.totals)
	if err != nil {
		return err
	}
	defer scan.Close()
	h.tab = make(map[string][]table.Row)
	h.enc = keys.NewEncoder(64)
	for {
		blk, err := scan.NextBlock(ctx)
		if err != nil {
			return err
		}
		if blk == nil {
			return nil
		}
		for _, row := range blk.tabs[0] {
			h.enc.Reset()
			if !appendHashKeyCols(h.enc, row, h.hj.innerCols, h.hj.floatKey) {
				continue // NULL key: joins nothing
			}
			k := string(h.enc.Bytes())
			h.tab[k] = append(h.tab[k], row)
		}
	}
}

func (h *hashJoinIter) NextBlock(ctx context.Context) (*rowBlock, error) {
	if !h.built {
		if err := h.build(ctx); err != nil {
			return nil, err
		}
		h.built = true
	}
	for {
		if h.mi < len(h.matches) {
			irows := h.matches[h.mi:]
			h.mi = len(h.matches)
			if cap(h.outerRep) < len(irows) {
				h.outerRep = make([]table.Row, len(irows))
			}
			rep := h.outerRep[:len(irows)]
			for i := range rep {
				rep[i] = h.curOuter
			}
			h.tabs[0], h.tabs[1] = rep, irows
			h.blk.tabs = h.tabs[:]
			return &h.blk, nil
		}
		if h.outerBlk == nil || h.oi >= h.outerBlk.n() {
			blk, err := h.outer.NextBlock(ctx)
			if blk == nil || err != nil {
				return nil, err
			}
			h.outerBlk, h.oi = blk, 0
		}
		h.curOuter = h.outerBlk.tabs[0][h.oi]
		h.oi++
		h.enc.Reset()
		if !appendHashKeyCols(h.enc, h.curOuter, h.hj.outerCols, h.hj.floatKey) {
			continue
		}
		h.matches = h.tab[string(h.enc.Bytes())]
		h.mi = 0
	}
}

func (h *hashJoinIter) Close() { h.outer.Close() }

// appendHashKeyCols encodes a row's join-key columns into enc, returning
// false when any key value is NULL (or, defensively, of an unexpected
// dynamic type) — such rows join nothing, exactly as `col = col` with a
// NULL operand never passes the filter.
func appendHashKeyCols(enc *keys.Encoder, row table.Row, cols []int, float []bool) bool {
	for i, c := range cols {
		v := row[c]
		if v == nil {
			return false
		}
		if float[i] {
			var f float64
			switch x := v.(type) {
			case int64:
				f = float64(x)
			case float64:
				f = x
			default:
				return false
			}
			if f == 0 {
				f = 0 // -0.0 and +0.0 compare equal; hash them equal too
			}
			enc.Float64(f)
			continue
		}
		switch x := v.(type) {
		case int64:
			enc.Int64(x)
		case string:
			enc.String(x)
		case []byte:
			enc.RawBytes(x)
		case bool:
			enc.Bool(x)
		default:
			return false
		}
	}
	return true
}
