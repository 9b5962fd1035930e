package main

import (
	"fmt"
	"testing"
)

// opLists renders a generated workload's op lists (and nothing else that
// could differ by address), so two generations can be compared byte for
// byte.
func opLists(w workload) string {
	switch w := w.(type) {
	case *tpccWorkload:
		return fmt.Sprintf("%+v %v %v %v", w.cfg, w.home, w.own, w.ops)
	case *sqlWorkload:
		return fmt.Sprintf("%d %v %v", w.rows, w.total, w.ops)
	case *freshWorkload:
		return fmt.Sprintf("%d %v %v %v", w.rows, w.total, w.transfers, w.reads)
	case *scanWorkload:
		return fmt.Sprintf("%d %v %v", w.perWarehouse, w.wantRows, w.ops)
	}
	return ""
}

// kindCounts is the workload's op mix: how many ops of each kind every
// client's list holds.
func kindCounts(w workload) map[string]int {
	out := map[string]int{}
	switch w := w.(type) {
	case *tpccWorkload:
		for k, ops := range w.ops {
			for _, op := range ops {
				out[fmt.Sprintf("c%d/kind%d", k, op.kind)]++
				if op.kind == tpccPayment && op.cw != op.w {
					out[fmt.Sprintf("c%d/remote-payment", k)]++
				}
				for _, l := range op.lines {
					if l.supplyW != op.w {
						out[fmt.Sprintf("c%d/remote-new-order", k)]++
					}
				}
			}
		}
	case *sqlWorkload:
		for k, ops := range w.ops {
			for _, op := range ops {
				out[fmt.Sprintf("c%d/kind%d", k, op.kind)]++
			}
		}
	case *freshWorkload:
		out["transfers"] = len(w.transfers)
		for _, op := range w.reads {
			out[fmt.Sprintf("read/kind%d", op.kind)]++
		}
	case *scanWorkload:
		for k, ops := range w.ops {
			for _, op := range ops {
				out[fmt.Sprintf("c%d/kind%d", k, op.kind)]++
			}
		}
	}
	return out
}

func TestSeedDeterminism(t *testing.T) {
	sc := scale(0.05)
	for i := range workloads() {
		a, b, c := workloads()[i], workloads()[i], workloads()[i]
		a.generate(7, sc)
		b.generate(7, sc)
		c.generate(8, sc)
		t.Run(a.name(), func(t *testing.T) {
			if opLists(a) == "" {
				t.Fatal("no op lists rendered")
			}
			if opLists(a) != opLists(b) {
				t.Error("the same seed generated different op lists")
			}
			if opLists(a) == opLists(c) {
				t.Error("different seeds generated the same op lists")
			}
			if ka, kc := fmt.Sprint(kindCounts(a)), fmt.Sprint(kindCounts(c)); ka != kc {
				t.Errorf("different seeds generated different mixes:\n%s\n%s", ka, kc)
			}
		})
	}
}

// TestWritersOwnDisjointKeys checks the generators' promise that no two
// clients ever write the same row, which is why a write-write conflict in a
// run counts as a generator bug.
func TestWritersOwnDisjointKeys(t *testing.T) {
	sc := scale(0.05)

	tp := &tpccWorkload{}
	tp.generate(3, sc)
	owner := map[int64]int{}
	for k, own := range tp.own {
		for _, wh := range own {
			if prev, taken := owner[wh]; taken {
				t.Errorf("tpcc_geo: warehouse %d owned by terminals %d and %d", wh, prev, k)
			}
			owner[wh] = k
		}
	}
	if regionOfKey(tp.home[0]) == regionOfKey(tp.home[1]) {
		t.Errorf("tpcc_geo: both terminals are homed in %s", regionOfKey(tp.home[0]))
	}
	for k, ops := range tp.ops {
		for _, op := range ops {
			touched := []int64{op.w}
			if op.kind == tpccPayment {
				touched = append(touched, op.cw)
			}
			for _, l := range op.lines {
				touched = append(touched, l.supplyW)
			}
			for _, wh := range touched {
				if owner[wh] != k {
					t.Fatalf("tpcc_geo: terminal %d touches warehouse %d of terminal %d", k, wh, owner[wh])
				}
			}
		}
	}

	sq := &sqlWorkload{}
	sq.generate(3, sc)
	for k, ops := range sq.ops {
		for _, op := range ops {
			if op.kind != sqlUpdate && op.kind != sqlUpdateRange {
				continue
			}
			hi := op.hi
			if op.kind == sqlUpdate {
				hi = op.id
			}
			for id := op.id; id <= hi; id++ {
				if int(id/sqlBlock)%numClients != k {
					t.Fatalf("sql_front_local: client %d writes id %d of client %d", k, id, int(id/sqlBlock)%numClients)
				}
			}
		}
	}

	sn := &scanWorkload{}
	sn.generate(3, sc)
	for k, ops := range sn.ops {
		for _, op := range ops {
			if op.kind == scanUpdate && int(op.w-1)%numClients != k {
				t.Fatalf("scan_geo: client %d writes warehouse %d", k, op.w)
			}
		}
	}
}
