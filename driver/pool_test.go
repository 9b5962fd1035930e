package driver

import (
	"bufio"
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"globaldb"
	"globaldb/server"
	"globaldb/server/wire"
)

// startServer runs a wire server over a fast one-region cluster and
// returns its address.
func startServer(t *testing.T) (*globaldb.DB, *server.Server, string) {
	t.Helper()
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	srv := serve(t, db, "127.0.0.1:0")
	return db, srv, srv.Addr().String()
}

// serve starts a wire server over db on addr, shut down with the test.
func serve(t *testing.T, db *globaldb.DB, addr string) *server.Server {
	t.Helper()
	srv := server.New(db, server.Options{})
	if err := srv.Start(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(bg, 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// shutdown drains srv now, closing every connection it holds.
func shutdown(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// connectAsync runs Connect on its own goroutine; the returned channel
// yields its error, closing the connection it got.
func connectAsync(ctx context.Context, nc *NetConnector) <-chan error {
	got := make(chan error, 1)
	go func() {
		c, err := nc.Connect(ctx)
		if err == nil {
			c.Close()
		}
		got <- err
	}()
	return got
}

// TestPoolBoundsAndReuse pins the maxconns bound: a Connect beyond it
// blocks until a connection closes, a blocked Connect returns its
// context's error, and closing the connector fails a blocked Connect.
func TestPoolBoundsAndReuse(t *testing.T) {
	_, _, addr := startServer(t)
	nc := NewNetConnector(addr, Config{MaxConns: 2})
	defer nc.Close()

	c1, err := nc.Connect(bg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := nc.Connect(bg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// A third Connect must block on the maxconns bound...
	got := connectAsync(bg, nc)
	select {
	case err := <-got:
		t.Fatalf("third Connect did not block on maxconns=2 (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...until a connection closes. Closing twice frees one slot.
	c1.Close()
	c1.Close()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("blocked Connect failed after a close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Connect still blocked after a connection closed")
	}
	if n := len(nc.slots); n != 1 {
		t.Fatalf("%d slots held with one connection open", n)
	}

	// A blocked Connect returns when its context ends.
	c3, err := nc.Connect(bg)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if _, err := nc.Connect(ctx); err != context.DeadlineExceeded {
		t.Fatalf("blocked Connect got %v, want context.DeadlineExceeded", err)
	}

	// Closing the connector fails a blocked Connect and every later one.
	got = connectAsync(bg, nc)
	select {
	case err := <-got:
		t.Fatalf("Connect did not block at the bound (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	nc.Close()
	select {
	case err := <-got:
		if err != errConnectorClosed {
			t.Fatalf("blocked Connect got %v after Close, want %v", err, errConnectorClosed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not fail a blocked Connect")
	}
	c3.Close()
	if _, err := nc.Connect(bg); err != errConnectorClosed {
		t.Fatalf("Connect after Close got %v, want %v", err, errConnectorClosed)
	}
}

// TestPoolHealthCheck pins the health check on reuse: a connection left
// idle in database/sql's pool while its server restarts is found dead
// before its next use, so the next query succeeds on a fresh dial instead
// of failing with EOF.
func TestPoolHealthCheck(t *testing.T) {
	db, srv, addr := startServer(t)
	sqldb := openDB(t, NewNetConnector(addr, Config{}))
	var mode string
	if err := sqldb.QueryRowContext(bg, "SHOW STALENESS").Scan(&mode); err != nil {
		t.Fatal(err)
	}
	if st := sqldb.Stats(); st.Idle != 1 {
		t.Fatalf("database/sql holds %d idle connections, want 1", st.Idle)
	}

	shutdown(t, srv)
	serve(t, db, addr)

	if err := sqldb.QueryRowContext(bg, "SHOW STALENESS").Scan(&mode); err != nil {
		t.Fatalf("query after a server restart: %v", err)
	}
}

// TestPoolStatsGauges pins the driver's process-wide metrics:
// driver_pool_in_use counts open wire connections, driver_pool_wait_total
// counts Connects that blocked on maxconns, and
// driver_pool_health_check_failures_total counts ResetSession probes that
// found a dead socket.
func TestPoolStatsGauges(t *testing.T) {
	_, srv, addr := startServer(t)
	nc := NewNetConnector(addr, Config{MaxConns: 2})
	defer nc.Close()

	baseInUse := poolInUse.Value()
	baseWaits := poolWaits.Value()
	baseHealth := poolHealthFails.Value()

	c1, err := nc.Connect(bg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := nc.Connect(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := poolInUse.Value() - baseInUse; got != 2 {
		t.Fatalf("driver_pool_in_use delta = %d, want 2", got)
	}

	// A blocked Connect ticks the wait counter.
	got := connectAsync(bg, nc)
	deadline := time.Now().Add(10 * time.Second)
	for poolWaits.Value() == baseWaits {
		if time.Now().After(deadline) {
			t.Fatal("blocked Connect never counted as a wait")
		}
		time.Sleep(time.Millisecond)
	}
	c1.Close()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	if w := poolWaits.Value() - baseWaits; w != 1 {
		t.Fatalf("driver_pool_wait_total delta = %d, want 1", w)
	}

	// Kill the server: the probe before reuse finds the socket dead.
	shutdown(t, srv)
	if err := c2.(sqldriver.SessionResetter).ResetSession(bg); err != sqldriver.ErrBadConn {
		t.Fatalf("ResetSession on a dead socket = %v, want ErrBadConn", err)
	}
	if h := poolHealthFails.Value() - baseHealth; h != 1 {
		t.Fatalf("driver_pool_health_check_failures_total delta = %d, want 1", h)
	}
	c2.Close()
	if got := poolInUse.Value() - baseInUse; got != 0 {
		t.Fatalf("driver_pool_in_use delta = %d after every close, want 0", got)
	}
}

// TestTCPDSN drives the tcp:// DSN end to end: sql.Open dials the server,
// the handshake applies region and staleness, maxconns parses, and
// unknown options are refused.
func TestTCPDSN(t *testing.T) {
	_, _, addr := startServer(t)
	sqldb, err := sql.Open("globaldb", "tcp://"+addr+"?staleness=any&maxconns=3")
	if err != nil {
		t.Fatal(err)
	}
	defer sqldb.Close()
	var mode string
	if err := sqldb.QueryRowContext(bg, "SHOW STALENESS").Scan(&mode); err != nil {
		t.Fatal(err)
	}
	if mode != "ANY" {
		t.Fatalf("DSN staleness not applied over TCP: %q", mode)
	}
	if _, err := sql.Open("globaldb", "tcp://"+addr+"?maxconns=zero"); err == nil {
		t.Fatal("bad maxconns must fail at Open")
	}
	if _, err := sql.Open("globaldb", "tcp://"+addr+"?maxidle=2"); err == nil || !strings.Contains(err.Error(), "unknown DSN option") {
		t.Fatalf("maxidle must be refused as an unknown option, got %v", err)
	}
	// An unreachable server fails at first use, not at Open.
	bad, err := sql.Open("globaldb", "tcp://127.0.0.1:1?region=x")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if err := bad.PingContext(bg); err == nil {
		t.Fatal("ping against nothing must fail")
	}
}

// silentServer listens on a loopback port and speaks just enough of the
// wire protocol to leave clients waiting: it answers Hello (when hello is
// set) and Parse (when parse is set), and never answers anything else. It
// returns the address.
func silentServer(t *testing.T, hello, parse bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				rd, w := wire.NewReader(bufio.NewReader(c)), bufio.NewWriter(c)
				for {
					m, err := rd.ReadMessage()
					if err != nil {
						return
					}
					var reply wire.Message
					switch m.(type) {
					case *wire.Hello:
						if hello {
							reply = &wire.HelloOK{Region: "xian", Mode: "gclock"}
						}
					case *wire.Parse:
						if parse {
							reply = &wire.ParseOK{}
						}
					}
					if reply != nil {
						wire.WriteMessage(w, reply)
						w.Flush()
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// within runs op under a 100ms deadline against a server that never
// answers it and fails unless op returns context.DeadlineExceeded within a
// second.
func within(t *testing.T, name string, op func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancel()
	got := make(chan error, 1)
	go func() { got <- op(ctx) }()
	select {
	case err := <-got:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s returned %v, want context.DeadlineExceeded", name, err)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s still blocked a second after its 100ms deadline", name)
	}
}

// TestContextBoundsRoundTrip pins that a context bounds every wire round
// trip, not only the TCP connect: against a server that never answers,
// Exec, Query, Ping, a prepared Exec and the handshake itself each return
// the context's error promptly.
func TestContextBoundsRoundTrip(t *testing.T) {
	sqldb := openDB(t, NewNetConnector(silentServer(t, true, true), Config{}))
	within(t, "Exec", func(ctx context.Context) error {
		_, err := sqldb.ExecContext(ctx, "DELETE FROM t")
		return err
	})
	within(t, "Query", func(ctx context.Context) error {
		rows, err := sqldb.QueryContext(ctx, "SELECT k FROM t")
		if err == nil {
			rows.Close()
		}
		return err
	})
	within(t, "Ping", sqldb.PingContext)
	stmt, err := sqldb.PrepareContext(bg, "DELETE FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	within(t, "prepared Exec", func(ctx context.Context) error {
		_, err := stmt.ExecContext(ctx)
		return err
	})

	nc := NewNetConnector(silentServer(t, false, true), Config{MaxConns: 1})
	defer nc.Close()
	within(t, "Connect", func(ctx context.Context) error {
		c, err := nc.Connect(ctx)
		if err == nil {
			c.Close()
		}
		return err
	})
	if n := len(nc.slots); n != 0 {
		t.Fatalf("a failed Connect kept its slot (%d held)", n)
	}
}

// TestClientSessionContextBounds pins that the shell's network session
// honours its contexts the way the database/sql connection does: against a
// server that never answers, ExecScript, Prepare and a prepared Exec each
// return the context's error promptly.
func TestClientSessionContextBounds(t *testing.T) {
	dial := func(t *testing.T, addr string) *ClientSession {
		t.Helper()
		s, err := Dial(bg, addr, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	parsing, mute := silentServer(t, true, true), silentServer(t, true, false)
	s := dial(t, parsing)
	within(t, "ExecScript", func(ctx context.Context) error {
		_, err := s.ExecScript(ctx, "DELETE FROM t")
		return err
	})
	s = dial(t, mute)
	within(t, "Prepare", func(ctx context.Context) error {
		_, err := s.Prepare(ctx, "DELETE FROM t")
		return err
	})
	stmt, err := dial(t, parsing).Prepare(bg, "DELETE FROM t")
	if err != nil {
		t.Fatal(err)
	}
	within(t, "prepared Exec", func(ctx context.Context) error {
		_, err := stmt.Exec(ctx)
		return err
	})
}
