package gsql

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb"
)

// scanReads are multi-read SELECTs that each report the balance of acct row
// 1: a range, an aggregate (row 1 is in group 1, whose other row among ids
// 1..8, id 5, keeps its balance of 500) and a join.
var scanReads = []struct {
	name, sql string
	bal       func(rows [][]any) int64
}{
	{"range", "SELECT id, bal FROM acct WHERE id BETWEEN 1 AND 4", func(rows [][]any) int64 { return asInt(rows[0][1]) }},
	{"aggregate", "SELECT grp, SUM(bal) FROM acct WHERE id BETWEEN 1 AND 8 GROUP BY grp HAVING grp = 1",
		func(rows [][]any) int64 { return asInt(rows[0][1]) - 500 }},
	{"join", "SELECT a.id, a.bal, g.label FROM acct a JOIN grp_info g ON g.grp = a.grp WHERE a.id BETWEEN 1 AND 2 ORDER BY a.id",
		func(rows [][]any) int64 { return asInt(rows[0][1]) }},
}

func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	panic("not a number")
}

// TestScansSeeCommitsAckedOnAnotherCN is TestPointSelectSeesCommitAckedOnAnotherCN
// and TestPointSelectsKeepRealTimeOrder for the statements that read many
// times at one snapshot, taken without an invocation wait. A range, an
// aggregate and a join SELECT run on a CN whose clock sits at +bound and on
// one at -bound, while a session on a third CN commits increasing balances to
// the row they read. No SELECT may return a balance older than one already
// acknowledged, or already returned by any SELECT, when it started. A commit
// is visible at the primary before its commit wait ends, and for that while
// the faster CN's snapshot covers it and the slower CN's does not: the
// faster CN's SELECT must settle before its rows leave.
func TestScansSeeCommitsAckedOnAnotherCN(t *testing.T) {
	db, fast, slow := openOneReadSQL(t)
	bound := globaldb.OneRegion(0).Clock.SyncRTT
	c := db.Cluster()
	c.CN(db.Regions()[0]).Oracle().Clock().SetFaultSkew(bound)
	c.CN(db.Regions()[1]).Oracle().Clock().SetFaultSkew(-bound)
	writer, err := Connect(db, db.Regions()[0])
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64 // highest balance whose UPDATE has returned
	var seen atomic.Int64  // highest balance any SELECT has returned
	acked.Store(100)
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for bal := int64(101); !stop.Load(); bal++ {
			if _, err := writer.Exec(bg, "UPDATE acct SET bal = ? WHERE id = 1", bal); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			acked.Store(bal)
		}
	}()
	for _, s := range []*Session{fast, slow} {
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := scanReads[i%len(scanReads)]
				floor := max(acked.Load(), seen.Load())
				res, err := s.Exec(bg, q.sql)
				if err != nil {
					t.Errorf("%s: %v", q.name, err)
					return
				}
				got := q.bal(res.Rows)
				if got < floor {
					t.Errorf("%s returned balance %d, but %d had been acked or returned before it started", q.name, got, floor)
					return
				}
				for cur := seen.Load(); got > cur && !seen.CompareAndSwap(cur, got); cur = seen.Load() {
				}
				reads.Add(1)
			}
		}()
	}
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 || seen.Load() <= 100 {
		t.Fatalf("%d reads saw balances up to %d, want reads of committed updates", reads.Load(), seen.Load())
	}
}
