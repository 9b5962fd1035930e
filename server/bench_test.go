package server

import (
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb"
	"globaldb/driver"
	"globaldb/gsql"
)

// seedBenchTable loads n small rows into table bench.
func seedBenchTable(t testing.TB, db *globaldb.DB, n int) {
	t.Helper()
	sess, err := gsql.Connect(db, db.Regions()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(bg, "CREATE TABLE bench (k BIGINT, v TEXT, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	ins, err := sess.Prepare(bg, "INSERT INTO bench VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	if _, err := sess.Exec(bg, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ins.Exec(bg, int64(i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Exec(bg, "COMMIT"); err != nil {
		t.Fatal(err)
	}
}

const benchKeys = 10000

// runMixedLoad drives ops operations — ~90% point gets, ~10% short
// streamed scans — through sqldb from `workers` concurrent goroutines and
// reports the first error.
func runMixedLoad(sqldb *sql.DB, workers int, ops int64) error {
	var (
		remaining atomic.Int64
		wg        sync.WaitGroup
		firstErr  atomic.Value
	)
	remaining.Store(ops)
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err) //nolint:errcheck
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for remaining.Add(-1) >= 0 {
				k := int64(rng.Intn(benchKeys))
				if rng.Intn(10) == 0 {
					// Streamed scan: 100 rows through the row-frame path.
					rows, err := sqldb.QueryContext(bg,
						"SELECT k, v FROM bench WHERE k >= ? ORDER BY k LIMIT 100", k)
					if err != nil {
						fail(err)
						return
					}
					for rows.Next() {
						var kk int64
						var v string
						if err := rows.Scan(&kk, &v); err != nil {
							fail(err)
							rows.Close()
							return
						}
					}
					if err := rows.Close(); err != nil {
						fail(err)
						return
					}
				} else {
					var v string
					if err := sqldb.QueryRowContext(bg,
						"SELECT v FROM bench WHERE k = ?", k).Scan(&v); err != nil {
						fail(err)
						return
					}
				}
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return err
	}
	return nil
}

// BenchmarkManyConnections measures server throughput as the number of
// concurrent client connections grows: each sub-benchmark opens its own
// driver connector and database/sql pool sized to the connection count and
// drives the mixed point-get / streamed-scan load with one worker per
// connection.
func BenchmarkManyConnections(b *testing.B) {
	db := newTestCluster(b)
	seedBenchTable(b, db, benchKeys)
	srv := startTestServer(b, db, Options{})
	addr := srv.Addr().String()

	for _, conns := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("conns=%d", conns), func(b *testing.B) {
			nc := driver.NewNetConnector(addr, driver.Config{MaxConns: conns})
			defer nc.Close()
			sqldb := sql.OpenDB(nc)
			defer sqldb.Close()
			sqldb.SetMaxOpenConns(conns)
			sqldb.SetMaxIdleConns(conns)
			if err := sqldb.PingContext(bg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := runMixedLoad(sqldb, conns, int64(b.N)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// TestManyConnections holds 1000+ sessions open concurrently — every one a
// live TCP connection with its own server-side session — and runs the
// mixed load across them. Its real assertion is the race detector: CI runs
// this under -race to prove the per-connection goroutines, the drain
// bookkeeping, and the client connections are data-race free at scale.
func TestManyConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-connection soak skipped in -short mode")
	}
	db := newTestCluster(t)
	seedBenchTable(t, db, benchKeys)
	srv := startTestServer(t, db, Options{})
	addr := srv.Addr().String()

	const conns = 1024
	nc := driver.NewNetConnector(addr, driver.Config{MaxConns: conns})
	defer nc.Close()
	sqldb := sql.OpenDB(nc)
	defer sqldb.Close()
	sqldb.SetMaxOpenConns(conns)
	sqldb.SetMaxIdleConns(conns)

	// Pin every connection open at once: each holds a dedicated sql.Conn
	// until all 1024 are established, so the server really is carrying
	// 1024 live sessions simultaneously.
	var (
		wg      sync.WaitGroup
		barrier sync.WaitGroup
		errs    = make(chan error, conns)
	)
	barrier.Add(conns)
	wg.Add(conns)
	for i := 0; i < conns; i++ {
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(bg, 5*time.Minute)
			defer cancel()
			conn, err := sqldb.Conn(ctx)
			if err != nil {
				barrier.Done()
				errs <- fmt.Errorf("conn %d: %w", i, err)
				return
			}
			defer conn.Close()
			barrier.Done()
			barrier.Wait() // all sessions concurrently live from here
			var v string
			if err := conn.QueryRowContext(ctx,
				"SELECT v FROM bench WHERE k = ?", int64(i%benchKeys)).Scan(&v); err != nil {
				errs <- fmt.Errorf("conn %d get: %w", i, err)
				return
			}
			rows, err := conn.QueryContext(ctx,
				"SELECT k FROM bench WHERE k >= ? ORDER BY k LIMIT 20", int64(i%benchKeys))
			if err != nil {
				errs <- fmt.Errorf("conn %d scan: %w", i, err)
				return
			}
			for rows.Next() {
				var k int64
				if err := rows.Scan(&k); err != nil {
					errs <- err
					rows.Close()
					return
				}
			}
			if err := rows.Close(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Accepted < conns {
		t.Fatalf("server accepted %d connections, want >= %d", st.Accepted, conns)
	}
}
