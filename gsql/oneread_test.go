package gsql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb"
	"globaldb/internal/gtm"
	"globaldb/internal/obs"
	"globaldb/internal/tso"
)

// openOneReadSQL opens a zero-RTT cluster with a 16-row acct table and its
// 4-row group table, and returns the cluster and a session in each of two
// regions.
func openOneReadSQL(t *testing.T) (db *globaldb.DB, a, b *Session) {
	t.Helper()
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	if a, err = Connect(db, cfg.Regions[0]); err != nil {
		t.Fatal(err)
	}
	if b, err = Connect(db, cfg.Regions[1]); err != nil {
		t.Fatal(err)
	}
	exec(t, a, "CREATE TABLE acct (id BIGINT, grp BIGINT, bal BIGINT, PRIMARY KEY (id)) SHARD BY id")
	exec(t, a, "CREATE TABLE grp_info (grp BIGINT, label TEXT, PRIMARY KEY (grp)) SHARD BY grp")
	var rows []string
	for id := 1; id <= 16; id++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d)", id, id%4, 100*id))
	}
	exec(t, a, "INSERT INTO acct VALUES "+strings.Join(rows, ", "))
	exec(t, a, "INSERT INTO grp_info VALUES (0, 'g0'), (1, 'g1'), (2, 'g2'), (3, 'g3')")
	return db, a, b
}

// invocationWaits counts the GClock invocation waits the process has done.
func invocationWaits() int64 {
	return obs.Default.Histogram(tso.MetricInvocationWait).Snapshot().Count
}

// readTag returns the read context a traced statement's execute span names.
func readTag(t *testing.T, res *Result) string {
	t.Helper()
	for _, line := range res.Trace {
		if s := strings.TrimSpace(line); strings.HasPrefix(s, "execute [read=") {
			tag := strings.TrimPrefix(s, "execute [read=")
			return tag[:strings.IndexAny(tag, " ]")]
		}
	}
	t.Fatalf("no tagged execute span in trace:\n%s", strings.Join(res.Trace, "\n"))
	return ""
}

// TestPointSelectSkipsInvocationWait: an autocommit point SELECT — prepared,
// streamed or ad hoc with a residual filter — reads the primary through a
// one-read context and does no GClock invocation wait.
func TestPointSelectSkipsInvocationWait(t *testing.T) {
	_, s, _ := openOneReadSQL(t)
	st, err := s.Prepare(bg, "SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	s.SetTrace(true)
	for _, c := range []struct {
		name string
		run  func() (*Result, error)
		want int64
	}{
		{"prepared", func() (*Result, error) { return st.Exec(bg, int64(3)) }, 300},
		{"ad hoc with a residual filter", func() (*Result, error) {
			return s.Exec(bg, "SELECT bal FROM acct WHERE id = 5 AND bal > -1")
		}, 500},
	} {
		before := invocationWaits()
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if waits := invocationWaits() - before; waits != 0 {
			t.Errorf("%s: %d invocation waits, want 0", c.name, waits)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != c.want {
			t.Errorf("%s: rows %v, want [[%d]]", c.name, res.Rows, c.want)
		}
		if tag := readTag(t, res); tag != "one-read" {
			t.Errorf("%s read through %q, want one-read", c.name, tag)
		}
	}

	// The streaming entry point takes the same path.
	before := invocationWaits()
	rows, err := st.Query(bg, int64(7))
	if err != nil {
		t.Fatal(err)
	}
	var got []any
	for rows.Next() {
		got = append(got, rows.Row()[0])
	}
	if err := rows.Close(); err != nil || rows.Err() != nil {
		t.Fatalf("streamed point select: %v %v", err, rows.Err())
	}
	if waits := invocationWaits() - before; waits != 0 || len(got) != 1 || got[0] != int64(700) {
		t.Fatalf("streamed point select: rows %v, %d invocation waits; want [700] and 0", got, waits)
	}
}

// TestNoStatementWaitsAtInvocation: under GClock no statement kind does an
// invocation wait. A range, an aggregate, a join and a LIMIT scan open an
// ordinary autocommit transaction, a range UPDATE searches its rows in one,
// and a SELECT or a point UPDATE inside BEGIN runs at the transaction's own
// snapshot; the primaries' read floors, not a wait, keep each snapshot
// stable. (The point statements: TestPointSelectSkipsInvocationWait and
// TestPointWritesSkipInvocationWait.)
func TestNoStatementWaitsAtInvocation(t *testing.T) {
	_, s, _ := openOneReadSQL(t)
	s.SetTrace(true)
	for _, c := range []struct{ name, sql string }{
		{"range", "SELECT id, bal FROM acct WHERE id BETWEEN 2 AND 5"},
		{"aggregate", "SELECT grp, COUNT(*), SUM(bal) FROM acct WHERE id BETWEEN 1 AND 8 GROUP BY grp"},
		{"join", "SELECT a.id, g.label FROM acct a JOIN grp_info g ON g.grp = a.grp WHERE a.id BETWEEN 1 AND 4"},
		{"limit", "SELECT id FROM acct WHERE id > 2 ORDER BY id LIMIT 2"},
	} {
		before := invocationWaits()
		res := exec(t, s, c.sql)
		if waits := invocationWaits() - before; waits != 0 {
			t.Errorf("%s: %d invocation waits, want 0", c.name, waits)
		}
		if tag := readTag(t, res); tag != "autocommit" {
			t.Errorf("%s read through %q, want autocommit", c.name, tag)
		}
	}

	before := invocationWaits()
	exec(t, s, "UPDATE acct SET bal = bal + 1 WHERE id BETWEEN 2 AND 5")
	if waits := invocationWaits() - before; waits != 0 {
		t.Errorf("range UPDATE: %d invocation waits, want 0", waits)
	}

	before = invocationWaits()
	exec(t, s, "BEGIN")
	res := exec(t, s, "SELECT bal FROM acct WHERE id = 3")
	exec(t, s, "UPDATE acct SET bal = 301 WHERE id = 3")
	exec(t, s, "COMMIT")
	if waits := invocationWaits() - before; waits != 0 {
		t.Errorf("BEGIN; point SELECT; point UPDATE; COMMIT: %d invocation waits, want 0", waits)
	}
	if tag := readTag(t, res); tag != "txn" {
		t.Errorf("point SELECT inside BEGIN read through %q, want txn", tag)
	}

	exec(t, s, "SET STALENESS = ANY")
	if tag := readTag(t, exec(t, s, "SELECT bal FROM acct WHERE id = 3")); tag != "replica" {
		t.Errorf("point SELECT under SET STALENESS read through %q, want replica", tag)
	}
}

// TestPointSelectSeesCommitAckedOnAnotherCN is external consistency across
// the unwaited snapshot at the edges of the clock bound. A commit is acked on
// one CN, and a point SELECT that starts on another CN right after it must
// return it, 200 times over two rows. Clocks sit at +bound or -bound: the
// reader ahead and the writer's side behind, then the reverse, where the
// reader's snapshot is lowest and the writer's commit timestamp highest.
func TestPointSelectSeesCommitAckedOnAnotherCN(t *testing.T) {
	// The sync round trip is the floor of every clock's error bound, so a
	// fault skew of that size keeps each clock inside its advertised bound.
	bound := globaldb.OneRegion(0).Clock.SyncRTT
	for _, arrangement := range []struct {
		name       string
		readerSkew time.Duration
	}{{"reader ahead", bound}, {"reader behind", -bound}} {
		readerSkew := arrangement.readerSkew
		t.Run(arrangement.name, func(t *testing.T) {
			db, reader, writer := openOneReadSQL(t)
			c := db.Cluster()
			c.CN(db.Regions()[0]).Oracle().Clock().SetFaultSkew(readerSkew)
			// The writer's CN does the commit wait; the primaries issue the
			// one-message commits' timestamps.
			c.CN(db.Regions()[1]).Oracle().Clock().SetFaultSkew(-readerSkew)
			for _, p := range c.Primaries() {
				p.Oracle().Clock().SetFaultSkew(-readerSkew)
			}
			st, err := reader.Prepare(bg, "SELECT bal FROM acct WHERE id = ?")
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 200; i++ {
				id := 1 + i%2
				if _, err := writer.Exec(bg, "UPDATE acct SET bal = ? WHERE id = ?", i, id); err != nil {
					t.Fatal(err)
				}
				before := invocationWaits()
				res, err := st.Exec(bg, id)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 1 || res.Rows[0][0] != i {
					t.Fatalf("iteration %d: point SELECT of id %d returned %v after the commit of %d was acked", i, id, res.Rows, i)
				}
				if waits := invocationWaits() - before; waits != 0 {
					t.Fatalf("iteration %d: the point SELECT did %d invocation waits, want 0", i, waits)
				}
			}
		})
	}
}

// TestPointSelectsKeepRealTimeOrder runs point SELECTs on a CN whose clock
// sits at +bound and on one at -bound while a third session commits
// increasing balances to the row they read. No SELECT may return a balance
// older than one any SELECT had returned before it started. A commit is
// visible at the primary before its commit wait ends, and for that while the
// faster CN's unwaited snapshot covers it and the slower CN's does not.
func TestPointSelectsKeepRealTimeOrder(t *testing.T) {
	db, fast, slow := openOneReadSQL(t)
	bound := globaldb.OneRegion(0).Clock.SyncRTT
	c := db.Cluster()
	c.CN(db.Regions()[0]).Oracle().Clock().SetFaultSkew(bound)
	c.CN(db.Regions()[1]).Oracle().Clock().SetFaultSkew(-bound)
	writer, err := Connect(db, db.Regions()[0])
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64 // highest balance any SELECT has returned
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
		}
	}()
	for _, s := range []*Session{fast, slow} {
		go func() {
			defer wg.Done()
			st, err := s.Prepare(bg, "SELECT bal FROM acct WHERE id = ?")
			if err != nil {
				t.Error(err)
				return
			}
			for !stop.Load() {
				floor := seen.Load()
				res, err := st.Exec(bg, int64(1))
				if err != nil {
					t.Errorf("point select: %v", err)
					return
				}
				got := res.Rows[0][0].(int64)
				if got < floor {
					t.Errorf("point select returned balance %d, but %d had already been returned", got, floor)
					return
				}
				for cur := seen.Load(); got > cur && !seen.CompareAndSwap(cur, got); cur = seen.Load() {
				}
				reads.Add(1)
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if reads.Load() == 0 || seen.Load() <= 100 {
		t.Fatalf("%d reads saw balances up to %d, want reads of committed updates", reads.Load(), seen.Load())
	}
}

// TestPointSelectStreamedSettlesAtClose: a streamed point SELECT waits out
// the commit of the version it returned before it completes. With the clocks
// of TestPointSelectsKeepRealTimeOrder, the fast CN streams a point SELECT,
// reads the row and closes the Rows; a point SELECT that starts on the slow
// CN afterwards must return that balance or a later one, while a writer
// keeps committing new balances.
func TestPointSelectStreamedSettlesAtClose(t *testing.T) {
	testStreamedPointSelectSettles(t, true)
}

// TestPointSelectStreamedSettlesBeforeClose: as
// TestPointSelectStreamedSettlesAtClose, but the point SELECT on the slow CN
// starts once Next has returned the row, before the streamed Rows closes. A
// caller may pass the row on before Close (the wire server flushes a batch of
// one row before it), so the wait must be over by then.
func TestPointSelectStreamedSettlesBeforeClose(t *testing.T) {
	testStreamedPointSelectSettles(t, false)
}

func testStreamedPointSelectSettles(t *testing.T, closeFirst bool) {
	db, fast, slow := openOneReadSQL(t)
	bound := globaldb.OneRegion(0).Clock.SyncRTT
	c := db.Cluster()
	c.CN(db.Regions()[0]).Oracle().Clock().SetFaultSkew(bound)
	c.CN(db.Regions()[1]).Oracle().Clock().SetFaultSkew(-bound)
	writer, err := Connect(db, db.Regions()[0])
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for bal := int64(101); !stop.Load(); bal++ {
			if _, err := writer.Exec(bg, "UPDATE acct SET bal = ? WHERE id = 1", bal); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	streamed, err := fast.Prepare(bg, "SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	after, err := slow.Prepare(bg, "SELECT bal FROM acct WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); reads++ {
		rows, err := streamed.Query(bg, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("streamed point select returned no row: %v", rows.Err())
		}
		got := rows.Row()[0].(int64)
		if closeFirst {
			if err := rows.Close(); err != nil {
				t.Fatalf("closing the streamed point select: %v", err)
			}
		}
		res, err := after.Exec(bg, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if later := res.Rows[0][0].(int64); later < got {
			t.Fatalf("point select on the slow CN returned balance %d after a streamed select returned %d (closed first: %v)", later, got, closeFirst)
		}
		if !closeFirst {
			if rows.Next() {
				t.Fatal("streamed point select returned a second row")
			}
			if err := rows.Close(); err != nil || rows.Err() != nil {
				t.Fatalf("closing the streamed point select: %v, %v", err, rows.Err())
			}
		}
	}
	if reads == 0 {
		t.Fatal("no reads")
	}
}

// TestPointSelectsAcrossTransitions runs point SELECTs in one region while
// another commits increasing balances to the same row, through a switch to
// GTM and back to GClock. No SELECT may return a balance older than one
// already acknowledged when it started.
func TestPointSelectsAcrossTransitions(t *testing.T) {
	db, reader, writer := openOneReadSQL(t)
	var acked atomic.Int64 // highest balance whose UPDATE has returned
	acked.Store(100)
	var stop atomic.Bool
	var reads, writes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for bal := int64(101); !stop.Load(); bal++ {
			if _, err := writer.Exec(bg, "UPDATE acct SET bal = ? WHERE id = 1", bal); err != nil {
				if errors.Is(err, gtm.ErrOldModeAborted) {
					bal-- // Fig. 2: a GTM-begun transaction met the switch; retry
					continue
				}
				t.Errorf("update: %v", err)
				return
			}
			acked.Store(bal)
			writes.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		st, err := reader.Prepare(bg, "SELECT bal FROM acct WHERE id = ?")
		if err != nil {
			t.Error(err)
			return
		}
		for !stop.Load() {
			floor := acked.Load()
			res, err := st.Exec(bg, int64(1))
			if errors.Is(err, gtm.ErrOldModeAborted) {
				continue // a GTM-mode timestamp request that reached the server after its switch
			}
			if err != nil {
				t.Errorf("point select: %v", err)
				return
			}
			if len(res.Rows) != 1 || res.Rows[0][0].(int64) < floor {
				t.Errorf("point select returned %v, but balance %d was already acked", res.Rows, floor)
				return
			}
			reads.Add(1)
		}
	}()

	err := func() error {
		pause := func() { time.Sleep(50 * time.Millisecond) }
		pause()
		if err := db.TransitionToGTM(bg); err != nil {
			return err
		}
		pause()
		if err := db.TransitionToGClock(bg); err != nil {
			return err
		}
		pause()
		return nil
	}()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if reads.Load() == 0 || writes.Load() == 0 {
		t.Fatalf("%d reads and %d writes ran across the transitions, want some of each", reads.Load(), writes.Load())
	}
}
