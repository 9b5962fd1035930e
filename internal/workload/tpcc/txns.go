package tpcc

import (
	"context"
	"fmt"
	"time"

	"globaldb"
)

// abortOn aborts tx and returns err (helper for the error-path boilerplate).
func abortOn(ctx context.Context, tx *globaldb.Tx, err error) error {
	tx.Abort(ctx)
	return err
}

// pickWarehouse returns the transaction's target warehouse: the home
// warehouse, or a remote one RemotePct% of the time.
func (d *Driver) pickWarehouse(rng *lockedRand, home int64) int64 {
	if d.cfg.Warehouses > 1 && rng.Intn(100) < d.cfg.RemotePct {
		for {
			w := int64(1 + rng.Intn(d.cfg.Warehouses))
			if w != home {
				return w
			}
		}
	}
	return home
}

// NewOrder runs the TPC-C New-Order transaction for a terminal homed at w.
func (d *Driver) NewOrder(ctx context.Context, client int, home int64) error {
	rng := d.rng(client)
	w := d.pickWarehouse(rng, home)
	did := int64(1 + rng.Intn(d.cfg.Districts))
	cid := int64(1 + rng.Intn(d.cfg.CustomersPerDistrict))

	sess, err := d.session(d.HomeRegion(home))
	if err != nil {
		return err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}

	wRow, found, err := tx.Get(ctx, TWarehouse, []any{w})
	if err != nil || !found {
		return abortOn(ctx, tx, fmt.Errorf("tpcc: warehouse %d: %v found=%v", w, err, found))
	}
	dRow, found, err := tx.Get(ctx, TDistrict, []any{w, did})
	if err != nil || !found {
		return abortOn(ctx, tx, fmt.Errorf("tpcc: district: %v found=%v", err, found))
	}
	if _, found, err = tx.Get(ctx, TCustomer, []any{w, did, cid}); err != nil || !found {
		return abortOn(ctx, tx, fmt.Errorf("tpcc: customer: %v found=%v", err, found))
	}

	oid := dRow[5].(int64)
	dRow[5] = oid + 1
	if err := tx.Update(ctx, TDistrict, dRow); err != nil {
		return abortOn(ctx, tx, err)
	}

	olCnt := int64(5 + rng.Intn(11))
	if err := tx.Insert(ctx, TOrders, globaldb.Row{w, did, oid, cid, int64(0), olCnt, time.Now().UnixNano()}); err != nil {
		return abortOn(ctx, tx, err)
	}
	if err := tx.Insert(ctx, TNewOrder, globaldb.Row{w, did, oid}); err != nil {
		return abortOn(ctx, tx, err)
	}

	wTax := wRow[2].(float64)
	dTax := dRow[3].(float64)
	for ol := int64(1); ol <= olCnt; ol++ {
		iid := int64(1 + rng.Intn(d.cfg.Items))
		supplyW := w
		// Per spec ~1% of lines come from a remote warehouse; folded into
		// the driver-level remote percentage for the paper's locality
		// sweeps.
		if d.cfg.Warehouses > 1 && rng.Intn(100) < d.cfg.RemotePct {
			supplyW = int64(1 + rng.Intn(d.cfg.Warehouses))
		}
		iRow, found, err := tx.Get(ctx, TItem, []any{supplyW, iid})
		if err != nil || !found {
			return abortOn(ctx, tx, fmt.Errorf("tpcc: item: %v found=%v", err, found))
		}
		sRow, found, err := tx.Get(ctx, TStock, []any{supplyW, iid})
		if err != nil || !found {
			return abortOn(ctx, tx, fmt.Errorf("tpcc: stock: %v found=%v", err, found))
		}
		qty := int64(1 + rng.Intn(10))
		sQty := sRow[2].(int64)
		if sQty >= qty+10 {
			sRow[2] = sQty - qty
		} else {
			sRow[2] = sQty - qty + 91
		}
		sRow[3] = sRow[3].(int64) + qty
		sRow[4] = sRow[4].(int64) + 1
		if supplyW != w {
			sRow[5] = sRow[5].(int64) + 1
		}
		if err := tx.Update(ctx, TStock, sRow); err != nil {
			return abortOn(ctx, tx, err)
		}
		amount := float64(qty) * iRow[3].(float64) * (1 + wTax + dTax)
		if err := tx.Insert(ctx, TOrderLine, globaldb.Row{w, did, oid, ol, iid, supplyW, qty, amount}); err != nil {
			return abortOn(ctx, tx, err)
		}
	}
	return tx.Commit(ctx)
}

// Payment runs the TPC-C Payment transaction.
func (d *Driver) Payment(ctx context.Context, client int, home int64) error {
	rng := d.rng(client)
	w := home
	did := int64(1 + rng.Intn(d.cfg.Districts))
	// 15% of payments are for a customer of a remote warehouse (folded
	// into RemotePct for the locality sweeps).
	cw, cd := w, did
	if d.cfg.Warehouses > 1 && rng.Intn(100) < d.cfg.RemotePct {
		cw = int64(1 + rng.Intn(d.cfg.Warehouses))
		cd = int64(1 + rng.Intn(d.cfg.Districts))
	}
	cid := int64(1 + rng.Intn(d.cfg.CustomersPerDistrict))
	amount := 1 + rng.Float64()*4999

	sess, err := d.session(d.HomeRegion(home))
	if err != nil {
		return err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}

	wRow, found, err := tx.Get(ctx, TWarehouse, []any{w})
	if err != nil || !found {
		return abortOn(ctx, tx, fmt.Errorf("tpcc: warehouse: %v found=%v", err, found))
	}
	wRow[3] = wRow[3].(float64) + amount
	if err := tx.Update(ctx, TWarehouse, wRow); err != nil {
		return abortOn(ctx, tx, err)
	}

	dRow, found, err := tx.Get(ctx, TDistrict, []any{w, did})
	if err != nil || !found {
		return abortOn(ctx, tx, fmt.Errorf("tpcc: district: %v found=%v", err, found))
	}
	dRow[4] = dRow[4].(float64) + amount
	if err := tx.Update(ctx, TDistrict, dRow); err != nil {
		return abortOn(ctx, tx, err)
	}

	cRow, found, err := tx.Get(ctx, TCustomer, []any{cw, cd, cid})
	if err != nil || !found {
		return abortOn(ctx, tx, fmt.Errorf("tpcc: customer: %v found=%v", err, found))
	}
	cRow[5] = cRow[5].(float64) - amount
	cRow[6] = cRow[6].(float64) + amount
	cRow[7] = cRow[7].(int64) + 1
	if err := tx.Update(ctx, TCustomer, cRow); err != nil {
		return abortOn(ctx, tx, err)
	}

	seq := d.histSeq.Add(1)
	if err := tx.Insert(ctx, THistory, globaldb.Row{w, seq, did, cid, amount, "payment"}); err != nil {
		return abortOn(ctx, tx, err)
	}
	return tx.Commit(ctx)
}

// OrderStatus runs the read-only Order-Status transaction through the
// read-write path (primary reads at a fresh snapshot). The paper's
// baseline runs read-only work this way.
func (d *Driver) OrderStatus(ctx context.Context, client int, home int64) error {
	rng := d.rng(client)
	sess, err := d.session(d.HomeRegion(home))
	if err != nil {
		return err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	if err := d.orderStatusBody(ctx, rng, tx, home); err != nil {
		return abortOn(ctx, tx, err)
	}
	return tx.Commit(ctx)
}

// StockLevel runs the read-only Stock-Level transaction on the primary.
func (d *Driver) StockLevel(ctx context.Context, client int, home int64) error {
	rng := d.rng(client)
	sess, err := d.session(d.HomeRegion(home))
	if err != nil {
		return err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	if err := d.stockLevelBody(ctx, rng, tx, home); err != nil {
		return abortOn(ctx, tx, err)
	}
	return tx.Commit(ctx)
}

// Delivery runs the TPC-C Delivery transaction: for each district, deliver
// the oldest undelivered order.
func (d *Driver) Delivery(ctx context.Context, client int, home int64) error {
	rng := d.rng(client)
	carrier := int64(1 + rng.Intn(10))
	sess, err := d.session(d.HomeRegion(home))
	if err != nil {
		return err
	}
	tx, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	for dd := 1; dd <= d.cfg.Districts; dd++ {
		did := int64(dd)
		noRows, err := tx.ScanPK(ctx, TNewOrder, []any{home, did}, 1)
		if err != nil {
			return abortOn(ctx, tx, err)
		}
		if len(noRows) == 0 {
			continue // no undelivered order in this district
		}
		oid := noRows[0][2].(int64)
		if err := tx.Delete(ctx, TNewOrder, []any{home, did, oid}); err != nil {
			return abortOn(ctx, tx, err)
		}
		oRow, found, err := tx.Get(ctx, TOrders, []any{home, did, oid})
		if err != nil || !found {
			return abortOn(ctx, tx, fmt.Errorf("tpcc: order %d: %v found=%v", oid, err, found))
		}
		oRow[4] = carrier
		if err := tx.Update(ctx, TOrders, oRow); err != nil {
			return abortOn(ctx, tx, err)
		}
		lines, err := tx.ScanPK(ctx, TOrderLine, []any{home, did, oid}, 0)
		if err != nil {
			return abortOn(ctx, tx, err)
		}
		total := 0.0
		for _, l := range lines {
			total += l[7].(float64)
		}
		cid := oRow[3].(int64)
		cRow, found, err := tx.Get(ctx, TCustomer, []any{home, did, cid})
		if err != nil || !found {
			return abortOn(ctx, tx, fmt.Errorf("tpcc: customer %d: %v found=%v", cid, err, found))
		}
		cRow[5] = cRow[5].(float64) + total
		cRow[8] = cRow[8].(int64) + 1
		if err := tx.Update(ctx, TCustomer, cRow); err != nil {
			return abortOn(ctx, tx, err)
		}
	}
	return tx.Commit(ctx)
}

// reader is the read API *globaldb.Tx and *globaldb.Query share, so the
// read-only transaction bodies run identically on primaries and replicas.
type reader interface {
	Get(ctx context.Context, table string, pk []any) (globaldb.Row, bool, error)
	ScanPK(ctx context.Context, table string, prefix []any, limit int) ([]globaldb.Row, error)
	ScanIndex(ctx context.Context, table, index string, prefix []any, limit int) ([]globaldb.Row, error)
}

// orderStatusBody: find a customer (60% by last name via index, 40% by id),
// their most recent order, and its order lines.
func (d *Driver) orderStatusBody(ctx context.Context, rng *lockedRand, r reader, w int64) error {
	did := int64(1 + rng.Intn(d.cfg.Districts))
	var cid int64
	if rng.Intn(100) < 60 {
		last := LastName(1 + rng.Intn(d.cfg.CustomersPerDistrict)%1000)
		rows, err := r.ScanIndex(ctx, TCustomer, "customer_name", []any{w, did, last}, 0)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			return nil // no such name at this scale; still a valid query
		}
		cid = rows[len(rows)/2][2].(int64)
	} else {
		cid = int64(1 + rng.Intn(d.cfg.CustomersPerDistrict))
		if _, _, err := r.Get(ctx, TCustomer, []any{w, did, cid}); err != nil {
			return err
		}
	}
	orders, err := r.ScanIndex(ctx, TOrders, "orders_customer", []any{w, did, cid}, 0)
	if err != nil {
		return err
	}
	if len(orders) == 0 {
		return nil
	}
	lastOrder := orders[len(orders)-1]
	_, err = r.ScanPK(ctx, TOrderLine, []any{w, did, lastOrder[2].(int64)}, 0)
	return err
}

// stockLevelBody: examine the last 20 orders' lines in a district and count
// stock entries below a threshold.
func (d *Driver) stockLevelBody(ctx context.Context, rng *lockedRand, r reader, w int64) error {
	did := int64(1 + rng.Intn(d.cfg.Districts))
	dRow, found, err := r.Get(ctx, TDistrict, []any{w, did})
	if err != nil || !found {
		return fmt.Errorf("tpcc: district: %v found=%v", err, found)
	}
	nextO := dRow[5].(int64)
	lowO := nextO - 20
	if lowO < 1 {
		lowO = 1
	}
	threshold := int64(10 + rng.Intn(11))
	seen := map[int64]bool{}
	low := 0
	for oid := lowO; oid < nextO; oid++ {
		lines, err := r.ScanPK(ctx, TOrderLine, []any{w, did, oid}, 0)
		if err != nil {
			return err
		}
		for _, l := range lines {
			iid := l[4].(int64)
			supplyW := l[5].(int64)
			if seen[iid] {
				continue
			}
			seen[iid] = true
			sRow, found, err := r.Get(ctx, TStock, []any{supplyW, iid})
			if err != nil {
				return err
			}
			if found && sRow[2].(int64) < threshold {
				low++
			}
		}
	}
	return nil
}

// Terminal returns the full-mix workload function for a client: 45%
// New-Order, 43% Payment, 4% each Order-Status, Delivery, Stock-Level.
func (d *Driver) Terminal(client int) func(ctx context.Context) error {
	return d.TerminalAt(client, d.HomeWarehouse(client))
}

// TerminalAt is Terminal with an explicit home warehouse, letting
// experiments bind terminals to specific placements (e.g. warehouses not
// co-located with the GTM server).
func (d *Driver) TerminalAt(client int, home int64) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		rng := d.rng(client)
		switch x := rng.Intn(100); {
		case x < 45:
			return d.NewOrder(ctx, client, home)
		case x < 88:
			return d.Payment(ctx, client, home)
		case x < 92:
			return d.OrderStatus(ctx, client, home)
		case x < 96:
			return d.Delivery(ctx, client, home)
		default:
			return d.StockLevel(ctx, client, home)
		}
	}
}

// ReadOnlyTerminal returns the paper's modified read-only TPC-C (Sec. V-B):
// only Order-Status and Stock-Level, with multiShardPct% of queries
// touching a warehouse other than the terminal's home. When useROR is true
// the queries run through the read-on-replica path with the given staleness
// bound; otherwise they read primaries through regular transactions (the
// baseline).
func (d *Driver) ReadOnlyTerminal(client int, multiShardPct int, useROR bool, bound time.Duration) func(ctx context.Context) error {
	home := d.HomeWarehouse(client)
	return func(ctx context.Context) error {
		rng := d.rng(client)
		w := home
		if d.cfg.Warehouses > 1 && rng.Intn(100) < multiShardPct {
			w = int64(1 + rng.Intn(d.cfg.Warehouses))
		}
		sess, err := d.session(d.HomeRegion(home))
		if err != nil {
			return err
		}
		var r reader
		var tx *globaldb.Tx // stays nil on the read-on-replica path
		if useROR {
			q, err := sess.ReadOnly(ctx, bound, TCustomer, TOrders, TOrderLine, TDistrict, TStock)
			if err != nil {
				return err
			}
			r = q
		} else {
			if tx, err = sess.Begin(ctx); err != nil {
				return err
			}
			r = tx
		}
		if rng.Intn(100) < 50 {
			err = d.orderStatusBody(ctx, rng, r, w)
		} else {
			err = d.stockLevelBody(ctx, rng, r, w)
		}
		if tx == nil {
			return err
		}
		if err != nil {
			return abortOn(ctx, tx, err)
		}
		return tx.Commit(ctx)
	}
}

// ConsistencyCheck verifies cross-table invariants after a run: for every
// district, d_next_o_id-1 equals the maximum order ID, and order-line
// counts match o_ol_cnt — catching lost updates or torn multi-row commits.
// It reads each district's orders and order lines with one scan apiece.
func (d *Driver) ConsistencyCheck(ctx context.Context) error {
	sess, err := d.session(d.HomeRegion(1))
	if err != nil {
		return err
	}
	for w := int64(1); w <= int64(d.cfg.Warehouses); w++ {
		tx, err := sess.Begin(ctx)
		if err != nil {
			return err
		}
		for dd := int64(1); dd <= int64(d.cfg.Districts); dd++ {
			dRow, found, err := tx.Get(ctx, TDistrict, []any{w, dd})
			if err != nil || !found {
				return abortOn(ctx, tx, fmt.Errorf("tpcc: check district %d/%d: %v", w, dd, err))
			}
			nextO := dRow[5].(int64)
			orders, err := tx.ScanPK(ctx, TOrders, []any{w, dd}, 0)
			if err != nil {
				return abortOn(ctx, tx, err)
			}
			lines, err := tx.ScanPK(ctx, TOrderLine, []any{w, dd}, 0)
			if err != nil {
				return abortOn(ctx, tx, err)
			}
			linesOf := make(map[int64]int64, len(orders))
			for _, l := range lines {
				linesOf[l[2].(int64)]++
			}
			var maxO int64
			for _, o := range orders {
				oid := o[2].(int64)
				maxO = max(maxO, oid)
				if linesOf[oid] != o[5].(int64) {
					return abortOn(ctx, tx, fmt.Errorf("tpcc: order %d has %d lines, o_ol_cnt=%v", oid, linesOf[oid], o[5]))
				}
			}
			if maxO != nextO-1 {
				return abortOn(ctx, tx, fmt.Errorf("tpcc: district %d/%d next_o_id=%d but max order=%d", w, dd, nextO, maxO))
			}
		}
		if err := tx.Commit(ctx); err != nil {
			return err
		}
	}
	return nil
}
