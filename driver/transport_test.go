package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"testing"
	"time"

	"globaldb"
	"globaldb/server"
)

// forEachTransport runs a driver test twice: against the in-process
// connector, and against a TCP server started on an identical cluster. The
// conformance suite must pass unchanged on both — the wire protocol is an
// implementation detail below the database/sql surface.
func forEachTransport(t *testing.T, fn func(t *testing.T, db *globaldb.DB, mk func(Config) sqldriver.Connector)) {
	t.Run("inprocess", func(t *testing.T) {
		db := openCluster(t)
		fn(t, db, func(cfg Config) sqldriver.Connector { return NewConnector(db, cfg) })
	})
	t.Run("tcp", func(t *testing.T) {
		db := openCluster(t)
		srv := server.New(db, server.Options{})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(bg, 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("server shutdown: %v", err)
			}
		})
		addr := srv.Addr().String()
		fn(t, db, func(cfg Config) sqldriver.Connector { return NewNetConnector(addr, cfg) })
	})
}

// openDB wraps a connector as a *sql.DB closed with the test.
func openDB(t *testing.T, c sqldriver.Connector) *sql.DB {
	t.Helper()
	sqldb := sql.OpenDB(c)
	t.Cleanup(func() { sqldb.Close() })
	return sqldb
}

// TestQueryContextCancelMidStream pins the query path's context handling
// on both transports: canceling the context mid-stream must abort the scan
// — close the cursor (in process) or cancel the server-side stream (TCP) —
// and surface ctx.Err() instead of draining the remaining rows. The
// connection stays usable afterwards.
func TestQueryContextCancelMidStream(t *testing.T) {
	forEachTransport(t, func(t *testing.T, db *globaldb.DB, mk func(Config) sqldriver.Connector) {
		sqldb := openDB(t, mk(Config{Region: "xian"}))
		if _, err := sqldb.ExecContext(bg, `CREATE TABLE big (w BIGINT, id BIGINT,
			PRIMARY KEY (w, id)) SHARD BY w`); err != nil {
			t.Fatal(err)
		}
		ins, err := sqldb.PrepareContext(bg, "INSERT INTO big VALUES (?, ?)")
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 1200; i++ {
			if _, err := ins.ExecContext(bg, int64(0), i); err != nil {
				t.Fatal(err)
			}
		}
		ins.Close()

		// Drive the driver interface directly so the cancel lands between
		// two row frames deterministically, without database/sql's own
		// context watcher racing the assertion.
		cn, err := mk(Config{Region: "xian"}).Connect(bg)
		if err != nil {
			t.Fatal(err)
		}
		defer cn.Close()
		ctx, cancel := context.WithCancel(bg)
		rows, err := cn.(sqldriver.QueryerContext).QueryContext(ctx,
			"SELECT id FROM big WHERE w = ?", []sqldriver.NamedValue{{Ordinal: 1, Value: int64(0)}})
		if err != nil {
			t.Fatal(err)
		}
		dest := make([]sqldriver.Value, 1)
		for i := 0; i < 2; i++ {
			if err := rows.Next(dest); err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
		}
		cancel()
		var got error
		n := 0
		for {
			if err := rows.Next(dest); err != nil {
				got = err
				break
			}
			if n++; n > 1200 {
				t.Fatal("canceled query drained the whole table")
			}
		}
		if !errors.Is(got, context.Canceled) {
			t.Fatalf("post-cancel Next returned %v, want context.Canceled", got)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("close after cancel: %v", err)
		}
		// The connection survives the aborted stream.
		if err := cn.(sqldriver.Pinger).Ping(bg); err != nil {
			t.Fatalf("connection unusable after cancel: %v", err)
		}
		res, err := cn.(sqldriver.QueryerContext).QueryContext(bg,
			"SELECT COUNT(*) FROM big", nil)
		if err != nil {
			t.Fatalf("query after cancel: %v", err)
		}
		if err := res.Next(dest); err != nil {
			t.Fatal(err)
		}
		if dest[0] != int64(1200) {
			t.Fatalf("count after cancel = %v, want 1200", dest[0])
		}
		res.Close()
	})
}

// TestAbandonedTxnRolledBack pins session reset on both transports: a
// connection handed back to database/sql with a raw BEGIN still open is
// rolled back before its next user.
func TestAbandonedTxnRolledBack(t *testing.T) {
	forEachTransport(t, func(t *testing.T, db *globaldb.DB, mk func(Config) sqldriver.Connector) {
		sqldb := openDB(t, mk(Config{Region: "xian"}))
		// One connection, so the next user gets the abandoned one.
		sqldb.SetMaxOpenConns(1)
		if _, err := sqldb.ExecContext(bg, "CREATE TABLE ab (k BIGINT, PRIMARY KEY (k))"); err != nil {
			t.Fatal(err)
		}
		cn, err := sqldb.Conn(bg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cn.ExecContext(bg, "BEGIN"); err != nil {
			t.Fatal(err)
		}
		if _, err := cn.ExecContext(bg, "INSERT INTO ab VALUES (1)"); err != nil {
			t.Fatal(err)
		}
		cn.Close()

		// Inside the abandoned transaction the row would be visible.
		var n int64
		if err := sqldb.QueryRowContext(bg, "SELECT COUNT(*) FROM ab").Scan(&n); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("next user sees %d rows of an abandoned transaction", n)
		}
		if _, err := sqldb.ExecContext(bg, "BEGIN"); err != nil {
			t.Fatalf("BEGIN on the reset connection: %v", err)
		}
	})
}
