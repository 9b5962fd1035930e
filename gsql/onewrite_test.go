package gsql

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"globaldb"
	"globaldb/internal/obs"
	"globaldb/internal/stats"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/tso"
)

// commitWaits counts the GClock commit waits the process has done.
func commitWaits() int64 {
	return obs.Default.Histogram(tso.MetricCommitWait).Snapshot().Count
}

// oneWrites counts the commits that took the one-write path.
func oneWrites() int64 {
	return obs.Default.Counter(stats.MetricOneWriteStatements).Value()
}

// commitPath returns the path a traced statement's commit span names, or ""
// when the statement committed nothing.
func commitPath(res *Result) string {
	for _, line := range res.Trace {
		if _, tags, ok := strings.Cut(line, "path="); ok && strings.Contains(line, "commit [") {
			return tags[:strings.IndexAny(tags, " ]")]
		}
	}
	return ""
}

// TestPointWritesSkipInvocationWait: an autocommit point UPDATE or DELETE —
// prepared or ad hoc, with or without a residual filter, matching a row or
// not — runs in a one-read context: no GClock invocation wait, and one
// commit wait when it wrote. A statement that wrote commits on the one-write
// path, which its commit span names and the one-write counter counts.
func TestPointWritesSkipInvocationWait(t *testing.T) {
	_, s, _ := openOneReadSQL(t)
	st, err := s.Prepare(bg, "UPDATE acct SET bal = ? WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	s.SetTrace(true)
	for _, c := range []struct {
		name     string
		run      func() (*Result, error)
		affected int
	}{
		{"prepared UPDATE", func() (*Result, error) { return st.Exec(bg, int64(301), int64(3)) }, 1},
		{"UPDATE with a residual filter", func() (*Result, error) {
			return s.Exec(bg, "UPDATE acct SET bal = bal + 1 WHERE id = 5 AND bal > 0")
		}, 1},
		{"UPDATE whose filter rejects the row", func() (*Result, error) {
			return s.Exec(bg, "UPDATE acct SET bal = 0 WHERE id = 6 AND bal < 0")
		}, 0},
		{"UPDATE of a missing row", func() (*Result, error) {
			return s.Exec(bg, "UPDATE acct SET bal = 0 WHERE id = 99")
		}, 0},
		{"DELETE", func() (*Result, error) { return s.Exec(bg, "DELETE FROM acct WHERE id = 7") }, 1},
	} {
		waits, commits, ones := invocationWaits(), commitWaits(), oneWrites()
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Affected != c.affected {
			t.Errorf("%s: %d rows affected, want %d", c.name, res.Affected, c.affected)
		}
		if n := invocationWaits() - waits; n != 0 {
			t.Errorf("%s: %d invocation waits, want 0", c.name, n)
		}
		if n := commitWaits() - commits; n != int64(c.affected) {
			t.Errorf("%s: %d commit waits, want %d", c.name, n, c.affected)
		}
		if n := oneWrites() - ones; n != int64(c.affected) {
			t.Errorf("%s: %s moved by %d, want %d", c.name, stats.MetricOneWriteStatements, n, c.affected)
		}
		wantPath := ""
		if c.affected > 0 {
			wantPath = "one-write"
		}
		if path := commitPath(res); path != wantPath {
			t.Errorf("%s: commit path %q, want %q\n%s", c.name, path, wantPath, strings.Join(res.Trace, "\n"))
		}
	}
	s.SetTrace(false)
	res := exec(t, s, "SELECT id, bal FROM acct WHERE id BETWEEN 3 AND 7")
	if got, want := fmt.Sprint(res.Rows), "[[3 301] [4 400] [5 501] [6 600]]"; got != want {
		t.Fatalf("rows 3..7 after the writes: %s, want %s", got, want)
	}
}

// TestPointWriteUnderGTMKeepsItsBegin: under GTM an autocommit point UPDATE
// takes an ordinary transaction, as before: one timestamp fetch at begin and
// one at commit, the commit in two messages, and no one-write context. A
// point SELECT's execute span names the context it read through: a one-read
// context under GClock, the autocommit Begin under GTM.
func TestPointWriteUnderGTMKeepsItsBegin(t *testing.T) {
	db, s, _ := openOneReadSQL(t)
	pointSelectTag := func() string {
		t.Helper()
		s.SetTrace(true)
		defer s.SetTrace(false)
		return readTag(t, exec(t, s, "SELECT bal FROM acct WHERE id = 2"))
	}
	if tag := pointSelectTag(); tag != "one-read" {
		t.Errorf("point SELECT under GClock read through %q, want one-read", tag)
	}
	if err := db.TransitionToGTM(bg); err != nil {
		t.Fatal(err)
	}
	if tag := pointSelectTag(); tag != "autocommit" {
		t.Errorf("point SELECT under GTM read through %q, want autocommit", tag)
	}
	c := db.Cluster()
	// Heartbeats fetch GTM timestamps too; stop them for the count.
	c.Collector.Stop()
	defer c.Collector.Start()
	s.SetTrace(true)
	issued, ones, waits := c.GTMServer.Stats().IssuedGTM, oneWrites(), invocationWaits()
	res := exec(t, s, "UPDATE acct SET bal = 301 WHERE id = 3")
	if n := c.GTMServer.Stats().IssuedGTM - issued; n != 2 {
		t.Errorf("GTM issued %d timestamps for the UPDATE, want 2 (begin and commit)", n)
	}
	if n := oneWrites() - ones; n != 0 {
		t.Errorf("%d one-write statements under GTM, want 0", n)
	}
	if n := invocationWaits() - waits; n != 0 {
		t.Errorf("%d GClock invocation waits under GTM, want 0", n)
	}
	if path := commitPath(res); path != "two-message" {
		t.Errorf("commit path %q under GTM, want two-message", path)
	}
}

// skewArrangements are TestPointSelectSeesCommitAckedOnAnotherCN's clock
// setups: the first region's CN at +skew and the second's, with every
// primary, at -skew, for skew = +bound and -bound. The sync round trip is the
// floor of every clock's error bound, so each clock stays inside its
// advertised bound.
func skewArrangements() []struct {
	name string
	skew time.Duration
} {
	bound := globaldb.OneRegion(0).Clock.SyncRTT
	return []struct {
		name string
		skew time.Duration
	}{{"first CN ahead", bound}, {"first CN behind", -bound}}
}

// skew applies one arrangement to db's clocks.
func skew(db *globaldb.DB, d time.Duration) {
	c := db.Cluster()
	c.CN(db.Regions()[0]).Oracle().Clock().SetFaultSkew(d)
	c.CN(db.Regions()[1]).Oracle().Clock().SetFaultSkew(-d)
	for _, p := range c.Primaries() {
		p.Oracle().Clock().SetFaultSkew(-d)
	}
}

// balance reads one account's balance.
func balance(t *testing.T, s *Session, id int) int64 {
	t.Helper()
	res := exec(t, s, fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", id))
	if len(res.Rows) != 1 {
		t.Fatalf("account %d: rows %v", id, res.Rows)
	}
	return res.Rows[0][0].(int64)
}

// TestPointUpdatesLoseNoUpdate: two sessions on different CNs each run 200
// autocommit increments of one row, retrying each on a write-write conflict.
// Every acked increment must be in the final balance. Each increment reads at
// a snapshot taken without the invocation wait, on clocks skewed to the
// edges of their bound, so a commit that a trailing clock timestamps below
// that snapshot can land between the read and the write; the primary's
// check of the version read is what refuses the stale write.
func TestPointUpdatesLoseNoUpdate(t *testing.T) {
	const perSession = 200
	for _, arr := range skewArrangements() {
		t.Run(arr.name, func(t *testing.T) {
			db, a, b := openOneReadSQL(t)
			skew(db, arr.skew)
			start := balance(t, a, 1)
			ones := oneWrites()
			var wg sync.WaitGroup
			acked := make([]int, 2)
			conflicts := make([]int, 2)
			for i, s := range []*Session{a, b} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, err := s.Prepare(bg, "UPDATE acct SET bal = bal + 1 WHERE id = ?")
					if err != nil {
						t.Error(err)
						return
					}
					for acked[i] < perSession {
						res, err := st.Exec(bg, int64(1))
						if errors.Is(err, mvcc.ErrWriteConflict) {
							conflicts[i]++
							continue
						}
						if err != nil {
							t.Errorf("session %d: %v", i, err)
							return
						}
						if res.Affected != 1 {
							t.Errorf("session %d: %d rows affected", i, res.Affected)
							return
						}
						acked[i]++
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			got, want := balance(t, a, 1), start+int64(acked[0]+acked[1])
			if got != want {
				t.Fatalf("balance %d after %d acked increments from %d: %d increments lost (conflicts %v)",
					got, acked[0]+acked[1], start, want-got, conflicts)
			}
			if n := oneWrites() - ones; n < int64(acked[0]+acked[1]) {
				t.Fatalf("%d one-write statements for %d acked increments", n, acked[0]+acked[1])
			}
			t.Logf("%d acked increments, conflicts per session %v", acked[0]+acked[1], conflicts)
		})
	}
}

// TestPointUpdateBuildsOnAnotherCN: an increment acked on one CN is the base
// of the next increment on another CN, 200 times, alternating CNs, under both
// clock arrangements. The second CN's unwaited snapshot must cover the first
// CN's acked commit, or its read returns the older balance and its write
// fails the version check.
func TestPointUpdateBuildsOnAnotherCN(t *testing.T) {
	for _, arr := range skewArrangements() {
		t.Run(arr.name, func(t *testing.T) {
			db, a, b := openOneReadSQL(t)
			skew(db, arr.skew)
			start := balance(t, a, 2)
			var stmts [2]*Stmt
			for i, s := range []*Session{a, b} {
				st, err := s.Prepare(bg, "UPDATE acct SET bal = bal + 1 WHERE id = ?")
				if err != nil {
					t.Fatal(err)
				}
				stmts[i] = st
			}
			for i := 0; i < 200; i++ {
				if _, err := stmts[i%2].Exec(bg, int64(2)); err != nil {
					t.Fatalf("increment %d on CN %d, after the previous one was acked on the other: %v", i+1, i%2, err)
				}
			}
			if got := balance(t, b, 2); got != start+200 {
				t.Fatalf("balance %d after 200 acked increments from %d", got, start)
			}
		})
	}
}
