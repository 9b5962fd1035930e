package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"globaldb"
	"globaldb/gsql"
	"globaldb/server/wire"
)

var bg = context.Background()

// newTestCluster opens a fast single-region cluster.
func newTestCluster(t testing.TB) *globaldb.DB {
	t.Helper()
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = 0.02
	cfg.Shards = 2
	db, err := globaldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// startTestServer runs a server on a free port and shuts it down with the
// test.
func startTestServer(t testing.TB, db *globaldb.DB, opts Options) *Server {
	t.Helper()
	srv := New(db, opts)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(bg, 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// testClient is a raw wire-protocol client: it speaks frames directly so
// tests can pin the protocol itself, not the driver's view of it.
type testClient struct {
	t  testing.TB
	nc net.Conn
	rd *wire.Reader
	w  *bufio.Writer
}

func dialTest(t testing.TB, srv *Server) *testClient {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &testClient{t: t, nc: nc, rd: wire.NewReader(nc), w: bufio.NewWriter(nc)}
}

func (c *testClient) send(m wire.Message) {
	c.t.Helper()
	if err := wire.WriteMessage(c.w, m); err != nil {
		c.t.Fatal(err)
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *testClient) recv() wire.Message {
	c.t.Helper()
	m, err := c.rd.ReadMessage()
	if err != nil {
		c.t.Fatalf("recv: %v", err)
	}
	return m
}

// hello performs the handshake and requires it to succeed.
func (c *testClient) hello(region, staleness string) *wire.HelloOK {
	c.t.Helper()
	c.send(&wire.Hello{Version: wire.ProtocolVersion, Region: region, Staleness: staleness})
	m := c.recv()
	ok, good := m.(*wire.HelloOK)
	if !good {
		c.t.Fatalf("handshake answered %#v", m)
	}
	return ok
}

// query sends a Query and collects the whole response. The final message is
// the Done or the Error that ended the stream.
func (c *testClient) query(sql string, args ...any) (*wire.RowHeader, [][]any, wire.Message) {
	c.t.Helper()
	c.send(&wire.Query{SQL: sql, Args: args})
	return c.collect()
}

func (c *testClient) collect() (*wire.RowHeader, [][]any, wire.Message) {
	c.t.Helper()
	m := c.recv()
	hdr, ok := m.(*wire.RowHeader)
	if !ok {
		return nil, nil, m // refused before the header (Error frame)
	}
	var rows [][]any
	for {
		switch m := c.recv().(type) {
		case *wire.RowBatch:
			rows = append(rows, m.Rows...)
		case *wire.Done, *wire.Error:
			return hdr, rows, m
		default:
			c.t.Fatalf("unexpected %T mid-stream", m)
			return nil, nil, nil
		}
	}
}

// expectClosed requires the server to have closed the connection.
func (c *testClient) expectClosed() {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if m, err := c.rd.ReadMessage(); err == nil {
		c.t.Fatalf("connection still open, read %#v", m)
	}
}

// mustDone requires the response's final message to be a Done.
func (c *testClient) mustDone(m wire.Message) *wire.Done {
	c.t.Helper()
	done, ok := m.(*wire.Done)
	if !ok {
		c.t.Fatalf("final frame %#v, want Done", m)
	}
	return done
}

// TestServerQueryAndPrepared drives the protocol end to end over a real
// socket: handshake defaults, script execution, a streaming SELECT split
// across several row batches with scan counters in the trailer, prepared
// parse/bind/execute, and statement errors that leave the connection
// usable.
func TestServerQueryAndPrepared(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{BatchRows: 4})
	c := dialTest(t, srv)

	// Empty region in the handshake falls back to the cluster's first.
	ok := c.hello("", "")
	if ok.Region != db.Regions()[0] {
		t.Fatalf("handshake region %q, want %q", ok.Region, db.Regions()[0])
	}
	if ok.Mode == "" {
		t.Fatal("handshake reported no transaction mode")
	}

	// A multi-statement script goes through ExecScript.
	var script strings.Builder
	script.WriteString("CREATE TABLE kv (k BIGINT, v TEXT, PRIMARY KEY (k));\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&script, "INSERT INTO kv VALUES (%d, 'v%d');\n", i, i)
	}
	_, _, fin := c.query(script.String())
	c.mustDone(fin)

	// Streaming SELECT: 10 rows through BatchRows=4 means three batches,
	// and the Done trailer carries the scan's per-layer counters.
	hdr, rows, fin := c.query("SELECT k, v FROM kv ORDER BY k")
	if len(hdr.Columns) != 2 || hdr.Columns[0] != "k" || hdr.Columns[1] != "v" {
		t.Fatalf("columns %v", hdr.Columns)
	}
	if len(rows) != 10 {
		t.Fatalf("streamed %d rows, want 10", len(rows))
	}
	if rows[7][0] != int64(7) || rows[7][1] != "v7" {
		t.Fatalf("row 7 = %v", rows[7])
	}
	done := c.mustDone(fin)
	if done.Stats.StorageRows < 10 {
		t.Fatalf("Done.Stats.StorageRows = %d, want >= 10", done.Stats.StorageRows)
	}

	// Parameterized single statement.
	_, rows, fin = c.query("SELECT v FROM kv WHERE k = ?", int64(3))
	c.mustDone(fin)
	if len(rows) != 1 || rows[0][0] != "v3" {
		t.Fatalf("point get: %v", rows)
	}

	// Prepared statements: parse once, execute with fresh args, close.
	c.send(&wire.Parse{Name: "p1", SQL: "SELECT v FROM kv WHERE k = ?"})
	pok, ok2 := c.recv().(*wire.ParseOK)
	if !ok2 || pok.NumParams != 1 {
		t.Fatalf("ParseOK: %#v (ok=%v)", pok, ok2)
	}
	for k := int64(0); k < 3; k++ {
		c.send(&wire.Execute{Name: "p1", Args: []any{k}})
		_, rows, fin := c.collect()
		c.mustDone(fin)
		if len(rows) != 1 || rows[0][0] != fmt.Sprintf("v%d", k) {
			t.Fatalf("execute k=%d: %v", k, rows)
		}
	}
	c.send(&wire.CloseStmt{Name: "p1"})
	c.mustDone(c.recv())
	// Executing a closed statement is a statement error, not a dead
	// connection.
	c.send(&wire.Execute{Name: "p1", Args: []any{int64(0)}})
	_, _, fin = c.collect()
	if e, ok := fin.(*wire.Error); !ok || e.Code != "statement" {
		t.Fatalf("execute after close: %#v", fin)
	}

	// A failed statement leaves framing intact: the next request works.
	_, _, fin = c.query("SELECT * FROM nosuch")
	if e, ok := fin.(*wire.Error); !ok || e.Code != "statement" {
		t.Fatalf("bad query answered %#v", fin)
	}
	c.send(&wire.Ping{})
	if _, ok := c.recv().(*wire.Pong); !ok {
		t.Fatal("connection unusable after statement error")
	}

	// Transaction state rides in the Done trailer; Reset rolls it back.
	_, _, fin = c.query("BEGIN")
	if !c.mustDone(fin).InTxn {
		t.Fatal("BEGIN did not report InTxn")
	}
	_, _, fin = c.query("INSERT INTO kv VALUES (100, 'tx')")
	if !c.mustDone(fin).InTxn {
		t.Fatal("statement inside txn did not report InTxn")
	}
	c.send(&wire.Reset{})
	if c.mustDone(c.recv()).InTxn {
		t.Fatal("Reset left the transaction open")
	}
	_, rows, fin = c.query("SELECT v FROM kv WHERE k = ?", int64(100))
	c.mustDone(fin)
	if len(rows) != 0 {
		t.Fatalf("Reset did not roll back: %v", rows)
	}

	// The staleness handshake option applies to the whole session.
	c2 := dialTest(t, srv)
	c2.hello("", "any")
	_, rows, fin = c2.query("SHOW STALENESS")
	c2.mustDone(fin)
	if len(rows) != 1 || rows[0][0] != "ANY" {
		t.Fatalf("handshake staleness not applied: %v", rows)
	}

	st := srv.Stats()
	if st.Accepted < 2 || st.Statements == 0 || st.RowsStreamed < 10 {
		t.Fatalf("server counters: %+v", st)
	}
}

// TestServerQueryShapes pins how a Query frame's text is dispatched: a
// script runs every statement and answers with the last one's result, an
// empty text answers "empty script", a statement that is not a SELECT
// answers with its row count, with or without arguments, and a script
// with arguments is a statement error.
func TestServerQueryShapes(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{})
	c := dialTest(t, srv)
	c.hello("", "")

	_, _, fin := c.query("CREATE TABLE s (k BIGINT, PRIMARY KEY (k)); INSERT INTO s VALUES (1); INSERT INTO s VALUES (2), (3)")
	if done := c.mustDone(fin); done.Affected != 2 {
		t.Fatalf("script answered %+v, want the last statement's 2 rows", done)
	}
	_, rows, fin := c.query("SELECT COUNT(*) FROM s")
	c.mustDone(fin)
	if len(rows) != 1 || rows[0][0] != int64(3) {
		t.Fatalf("script did not run every statement: %v", rows)
	}

	for _, empty := range []string{"", " ;; "} {
		_, _, fin = c.query(empty)
		if done := c.mustDone(fin); done.Msg != "empty script" {
			t.Fatalf("empty query %q answered %+v", empty, done)
		}
	}

	_, _, fin = c.query("DELETE FROM s WHERE k > 1")
	if done := c.mustDone(fin); done.Affected != 2 {
		t.Fatalf("DELETE answered %+v, want 2 rows", done)
	}
	_, _, fin = c.query("INSERT INTO s VALUES (?)", int64(9))
	if done := c.mustDone(fin); done.Affected != 1 {
		t.Fatalf("parameterized INSERT answered %+v, want 1 row", done)
	}

	_, _, fin = c.query("SELECT k FROM s WHERE k = ?; SELECT k FROM s", int64(1))
	if e, ok := fin.(*wire.Error); !ok || e.Code != "statement" || !strings.Contains(e.Msg, "expected one statement") {
		t.Fatalf("script with arguments answered %#v", fin)
	}
	_, _, fin = c.query("INSERT INTO s VALUES (20); SELEC k FROM s")
	if e, ok := fin.(*wire.Error); !ok || e.Code != "statement" {
		t.Fatalf("script with a syntax error answered %#v", fin)
	}
	_, rows, fin = c.query("SELECT COUNT(*) FROM s")
	c.mustDone(fin)
	if len(rows) != 1 || rows[0][0] != int64(2) {
		t.Fatalf("a script that fails to parse ran a statement: %v", rows)
	}
}

// TestServerHandshakeRejects pins the refusal paths: wrong protocol
// version, a first frame that is not Hello, and bad handshake options all
// answer with an Error frame and close the connection.
func TestServerHandshakeRejects(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{})

	cases := []struct {
		name string
		m    wire.Message
		code string
	}{
		{"version mismatch", &wire.Hello{Version: 99}, "protocol"},
		{"not hello", &wire.Ping{}, "protocol"},
		{"bad staleness", &wire.Hello{Version: wire.ProtocolVersion, Staleness: "bogus"}, "handshake"},
		{"bad region", &wire.Hello{Version: wire.ProtocolVersion, Region: "atlantis"}, "handshake"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dialTest(t, srv)
			c.send(tc.m)
			e, ok := c.recv().(*wire.Error)
			if !ok || e.Code != tc.code {
				t.Fatalf("got %#v, want Error code %q", e, tc.code)
			}
			c.expectClosed()
		})
	}
}

// TestServerMalformedFrame sends bytes that are not a well-formed frame
// and requires a protocol Error plus connection close — never a panic, and
// never a silent hang.
func TestServerMalformedFrame(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{})

	send := func(t *testing.T, raw []byte) {
		c := dialTest(t, srv)
		c.hello("", "")
		if _, err := c.nc.Write(raw); err != nil {
			t.Fatal(err)
		}
		e, ok := c.recv().(*wire.Error)
		if !ok || e.Code != "protocol" {
			t.Fatalf("malformed frame answered %#v, want protocol Error", e)
		}
		c.expectClosed()
	}

	t.Run("oversized length", func(t *testing.T) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], wire.MaxFrameSize+1)
		send(t, hdr[:])
	})
	t.Run("zero length", func(t *testing.T) {
		send(t, []byte{0, 0, 0, 0})
	})
	t.Run("unknown message type", func(t *testing.T) {
		send(t, []byte{0, 0, 0, 1, 0xEE})
	})
	t.Run("corrupt payload", func(t *testing.T) {
		// A complete Query frame whose payload is an unterminated uvarint:
		// framing is intact but the contents don't decode.
		send(t, []byte{0, 0, 0, 2, byte(wire.MsgQuery), 0xFF})
	})
}

// TestServerCancelMidStream cancels a large streaming SELECT partway
// through and requires the stream to end early with a Done marked
// Canceled — and the connection to stay usable for the next statement.
func TestServerCancelMidStream(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{BatchRows: 8})

	// The response must outsize anything the kernel can buffer (socket
	// send + receive windows autotune to a few MB each on loopback), so
	// the server is guaranteed to still be mid-stream — blocked on flow
	// control — when the Cancel arrives.
	const total = 2000
	seedBigTable(t, db, total, 8192)

	c := dialTest(t, srv)
	c.hello("", "")

	c.send(&wire.Query{SQL: "SELECT k, pad FROM big"})
	if _, ok := c.recv().(*wire.RowHeader); !ok {
		t.Fatal("no row header")
	}
	// Read one batch, then cancel.
	if _, ok := c.recv().(*wire.RowBatch); !ok {
		t.Fatal("no first batch")
	}
	c.send(&wire.Cancel{})
	got := int64(8)
	for {
		m := c.recv()
		if b, ok := m.(*wire.RowBatch); ok {
			got += int64(len(b.Rows))
			continue
		}
		done := c.mustDone(m)
		if !done.Canceled {
			t.Fatal("Done not marked Canceled")
		}
		break
	}
	if got >= total {
		t.Fatalf("cancel drained all %d rows", got)
	}
	if n := srv.Stats().Canceled; n != 1 {
		t.Fatalf("Canceled counter = %d, want 1", n)
	}

	// The connection survives: the next statement runs normally.
	_, rows, fin := c.query("SELECT COUNT(*) FROM big")
	c.mustDone(fin)
	if len(rows) != 1 || rows[0][0] != int64(total) {
		t.Fatalf("post-cancel COUNT(*): %v", rows)
	}
	t.Logf("canceled after %d of %d rows", got, total)
}

// TestServerPanicIsolation injects a panic into one connection's statement
// and requires the blast radius to be that connection alone: it gets an
// Error frame and closes, a sibling connection keeps working, and the
// panic counter ticks.
func TestServerPanicIsolation(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{})

	testHookQuery = func(sql string) {
		if strings.Contains(sql, "PANIC_MARKER") {
			panic("injected planner bug")
		}
	}
	defer func() { testHookQuery = nil }()

	victim := dialTest(t, srv)
	victim.hello("", "")
	bystander := dialTest(t, srv)
	bystander.hello("", "")

	victim.send(&wire.Query{SQL: "SELECT PANIC_MARKER"})
	e, ok := victim.recv().(*wire.Error)
	if !ok || e.Code != "panic" {
		t.Fatalf("panicking statement answered %#v, want panic Error", e)
	}
	victim.expectClosed()

	// The sibling connection — and the server — are unharmed.
	bystander.send(&wire.Ping{})
	if _, ok := bystander.recv().(*wire.Pong); !ok {
		t.Fatal("bystander connection broken by sibling panic")
	}
	_, _, fin := bystander.query("SHOW STALENESS")
	bystander.mustDone(fin)
	if n := srv.Stats().Panics; n != 1 {
		t.Fatalf("Panics counter = %d, want 1", n)
	}

	// New connections still get served.
	fresh := dialTest(t, srv)
	fresh.hello("", "")
}

// seedBigTable creates table big (k BIGINT, pad TEXT) with n rows of
// padBytes-sized padding, through an in-process session.
func seedBigTable(t testing.TB, db *globaldb.DB, n, padBytes int) {
	t.Helper()
	sess, err := gsql.Connect(db, db.Regions()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(bg, "CREATE TABLE big (k BIGINT, pad TEXT, PRIMARY KEY (k))"); err != nil {
		t.Fatal(err)
	}
	ins, err := sess.Prepare(bg, "INSERT INTO big VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	// One transaction around the whole load: per-row auto-commit would pay
	// the commit latency n times over.
	if _, err := sess.Exec(bg, "BEGIN"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", padBytes)
	for i := 0; i < n; i++ {
		if _, err := ins.Exec(bg, int64(i), pad); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Exec(bg, "COMMIT"); err != nil {
		t.Fatal(err)
	}
}
