package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"globaldb/gsql"
	"globaldb/server/wire"
)

// inMsg is one reader-goroutine delivery: a decoded message or the read
// error that ended the connection's input.
type inMsg struct {
	m   wire.Message
	err error
}

// serverConn is one accepted connection: a gsql session, the frame writer,
// and the reader goroutine's delivery channel. Splitting reads into their
// own goroutine is what lets the statement loop poll for a Cancel between
// row batches without putting read deadlines under the frame decoder.
type serverConn struct {
	srv   *Server
	nc    net.Conn
	w     *bufio.Writer
	in    chan inMsg
	done  chan struct{} // closed when the statement loop exits
	sess  *gsql.Session
	stmts map[string]*gsql.Stmt
	cur   stmtObs // the statement being executed, until it is accounted
}

// handle runs one connection to completion. A panic anywhere in the
// statement loop — a planner or executor bug — is contained here: the
// client gets a best-effort Error frame, this connection closes, and the
// server keeps serving its siblings.
func (s *Server) handle(nc net.Conn) {
	c := &serverConn{
		srv:   s,
		nc:    nc,
		w:     bufio.NewWriter(nc),
		in:    make(chan inMsg, 4),
		done:  make(chan struct{}),
		stmts: make(map[string]*gsql.Stmt),
	}
	defer nc.Close()
	defer close(c.done)
	defer func() {
		if p := recover(); p != nil {
			s.counters.ObservePanic()
			_ = wire.WriteMessage(nc, &wire.Error{Code: "panic", Msg: fmt.Sprint(p)})
		}
	}()
	go c.readLoop()
	c.serve()
}

// readLoop decodes frames off the socket and hands them to the statement
// loop. It exits on the first read error (delivered to the loop) or when
// the statement loop is gone.
func (c *serverConn) readLoop() {
	rd := wire.NewReader(c.nc)
	for {
		m, err := rd.ReadMessage()
		select {
		case c.in <- inMsg{m, err}:
		case <-c.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// next blocks for the client's next message. Draining counts as
// end-of-input so idle connections close promptly on Shutdown; a
// connection mid-statement never calls next, so in-flight work finishes.
func (c *serverConn) next() (wire.Message, bool) {
	select {
	case im := <-c.in:
		if im.err != nil {
			// A malformed frame (vs. a plain disconnect) gets a best-effort
			// protocol Error so the peer knows framing sync is lost.
			if errors.Is(im.err, wire.ErrProtocol) {
				_ = c.finish(&wire.Error{Code: "protocol", Msg: im.err.Error()})
			}
			return nil, false
		}
		return im.m, true
	case <-c.srv.drainCh:
		return nil, false
	}
}

// serve runs the handshake and then the statement loop.
func (c *serverConn) serve() {
	if !c.handshake() {
		return
	}
	defer func() {
		// Abandoned connection: roll back its open transaction so its
		// writes don't linger as intents.
		if c.sess.InTxn() {
			_, _ = c.sess.ExecStmt(context.Background(), &gsql.Rollback{})
		}
	}()
	for {
		m, ok := c.next()
		if !ok {
			return
		}
		ctx := context.Background()
		var err error
		switch m := m.(type) {
		case *wire.Query:
			err = c.observeStatement(m.SQL, func() error { return c.runQuery(ctx, m) })
		case *wire.Parse:
			err = c.observeStatement(m.SQL, func() error { return c.runParse(ctx, m) })
		case *wire.Execute:
			sql := ""
			if st, ok := c.stmts[m.Name]; ok {
				sql = st.Text()
			}
			err = c.observeStatement(sql, func() error { return c.runExecute(ctx, m) })
		case *wire.Stats:
			err = c.runStats()
		case *wire.CloseStmt:
			if st, ok := c.stmts[m.Name]; ok {
				st.Close()
				delete(c.stmts, m.Name)
			}
			err = c.finish(&wire.Done{InTxn: c.sess.InTxn()})
		case *wire.Reset:
			if c.sess.InTxn() {
				if _, rerr := c.sess.ExecStmt(ctx, &gsql.Rollback{}); rerr != nil {
					err = c.statementError(rerr)
					break
				}
			}
			err = c.finish(&wire.Done{})
		case *wire.Ping:
			err = c.finish(&wire.Pong{})
		case *wire.Cancel:
			// A cancel that raced the end of its stream: the statement
			// already answered, nothing is in flight. Ignore it.
		default:
			_ = c.protocolError(fmt.Sprintf("unexpected %v", m.Type()))
			return
		}
		if err != nil {
			return
		}
	}
}

// handshake validates the Hello and opens the connection's session.
func (c *serverConn) handshake() bool {
	m, ok := c.next()
	if !ok {
		return false
	}
	hello, ok := m.(*wire.Hello)
	if !ok {
		_ = c.protocolError(fmt.Sprintf("expected Hello, got %v", m.Type()))
		return false
	}
	if hello.Version != wire.ProtocolVersion {
		_ = c.protocolError(fmt.Sprintf("unsupported protocol version %d (server speaks %d)",
			hello.Version, wire.ProtocolVersion))
		return false
	}
	region := hello.Region
	if region == "" {
		region = c.srv.opts.Region
	}
	if region == "" {
		regions := c.srv.db.Regions()
		if len(regions) == 0 {
			_ = c.handshakeError(errors.New("cluster has no regions"))
			return false
		}
		region = regions[0]
	}
	sess, err := gsql.Connect(c.srv.db, region)
	if err != nil {
		_ = c.handshakeError(err)
		return false
	}
	c.sess = sess
	if set, err := stalenessStmt(hello.Staleness); err != nil {
		_ = c.handshakeError(err)
		return false
	} else if set != nil {
		if _, err := sess.ExecStmt(context.Background(), set); err != nil {
			_ = c.handshakeError(err)
			return false
		}
	}
	return c.finish(&wire.HelloOK{Region: region, Mode: c.srv.db.Mode().String()}) == nil
}

// stalenessStmt translates the handshake's staleness option — the same
// grammar the driver DSN uses — into a SET STALENESS statement, or nil for
// the primary-read default.
func stalenessStmt(v string) (*gsql.SetStaleness, error) {
	switch strings.ToLower(v) {
	case "", "none":
		return nil, nil
	case "any":
		return &gsql.SetStaleness{Any: true}, nil
	default:
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad staleness %q", v)
		}
		return &gsql.SetStaleness{Bound: d}, nil
	}
}

// stmtObs is the statement a connection is executing, for the server's
// latency, slow-query and in-flight instrumentation.
type stmtObs struct {
	class, sql string
	start      time.Time
	pending    bool // not yet accounted
}

// observeStatement brackets one statement's execution with the server's
// latency and in-flight instrumentation. The statement is accounted by
// finish, before its final frame is flushed, so a client that has read the
// trailer — and anyone it tells — finds the statement in Stats and the
// slow-query log. The defer (which does not recover) is the path of a
// statement that never reached a final frame: a write error, or a panic
// mid-execution, which must still observe its latency, leave the in-flight
// gauge balanced and count toward the statement total (the handlers' own
// ObserveStatement call never ran) before handle()'s recover answers the
// client.
func (c *serverConn) observeStatement(sql string, fn func() error) error {
	c.cur = stmtObs{class: classifySQL(sql), sql: sql, start: time.Now(), pending: true}
	c.srv.inFlight.Inc()
	completed := false
	defer func() {
		c.accountStatement()
		if !completed {
			c.srv.counters.ObserveStatement(0)
		}
	}()
	err := fn()
	completed = true
	return err
}

// accountStatement records the in-flight statement's latency and takes it
// off the in-flight gauge, once.
func (c *serverConn) accountStatement() {
	if !c.cur.pending {
		return
	}
	c.cur.pending = false
	c.srv.inFlight.Dec()
	c.srv.observeStatement(c.cur.class, c.cur.sql, time.Since(c.cur.start))
}

// runStats answers the admin Stats frame with a snapshot of the server's
// counters and per-statement-type latency histograms.
func (c *serverConn) runStats() error {
	snap := c.srv.counters.Snapshot()
	res := &wire.StatsResult{
		Accepted:     snap.Accepted,
		Active:       snap.Active,
		Statements:   snap.Statements,
		RowsStreamed: snap.RowsStreamed,
		Canceled:     snap.Canceled,
		Panics:       snap.Panics,
		InFlight:     c.srv.inFlight.Value(),
	}
	for _, class := range stmtClasses {
		h := c.srv.stmtHist[class].Snapshot()
		if h.Count == 0 {
			continue
		}
		res.Latencies = append(res.Latencies, wire.StmtLatency{
			Type:     class,
			Count:    h.Count,
			SumNanos: h.SumNanos,
			P50Nanos: int64(h.P50()),
			P95Nanos: int64(h.P95()),
			P99Nanos: int64(h.P99()),
		})
	}
	return c.finish(res)
}

// testHookQuery, when non-nil, observes every Query statement before it
// runs. Tests use it to inject panics and prove per-connection isolation.
var testHookQuery func(sql string)

// runQuery answers a Query message: a streaming response for a single
// SELECT, a materialized one for other statements and multi-statement
// scripts (which take no arguments, mirroring ExecScript).
func (c *serverConn) runQuery(ctx context.Context, q *wire.Query) error {
	if testHookQuery != nil {
		testHookQuery(q.SQL)
	}
	if len(q.Args) == 0 {
		stmts, err := gsql.ParseAll(q.SQL)
		if err != nil {
			return c.statementError(err)
		}
		if len(stmts) != 1 {
			res, err := c.sess.ExecScript(ctx, q.SQL)
			if err != nil {
				return c.statementError(err)
			}
			return c.resultResponse(res)
		}
	}
	rows, err := c.sess.Query(ctx, q.SQL, q.Args...)
	if errors.Is(err, gsql.ErrNotSelect) {
		res, err := c.sess.Exec(ctx, q.SQL, q.Args...)
		if err != nil {
			return c.statementError(err)
		}
		return c.resultResponse(res)
	}
	if err != nil {
		return c.statementError(err)
	}
	return c.streamResponse(rows)
}

// runParse prepares a named statement. Re-parsing a taken name replaces
// the previous statement, like PostgreSQL's unnamed-statement behavior
// generalized.
func (c *serverConn) runParse(ctx context.Context, p *wire.Parse) error {
	st, err := c.sess.Prepare(ctx, p.SQL)
	if err != nil {
		return c.statementError(err)
	}
	if old, ok := c.stmts[p.Name]; ok {
		old.Close()
	}
	c.stmts[p.Name] = st
	return c.finish(&wire.ParseOK{NumParams: st.NumParams()})
}

// runExecute runs a previously parsed statement.
func (c *serverConn) runExecute(ctx context.Context, e *wire.Execute) error {
	st, ok := c.stmts[e.Name]
	if !ok {
		return c.statementError(fmt.Errorf("no prepared statement %q", e.Name))
	}
	rows, err := st.Query(ctx, e.Args...)
	if errors.Is(err, gsql.ErrNotSelect) {
		res, err := st.Exec(ctx, e.Args...)
		if err != nil {
			return c.statementError(err)
		}
		return c.resultResponse(res)
	}
	if err != nil {
		return c.statementError(err)
	}
	return c.streamResponse(rows)
}

// streamResponse ships a streaming result: header, row batches flushed as
// the pipeline produces them, Done with the settled scan counters. Between
// batches it polls for a client Cancel; on one it closes the cursor —
// stopping the scans mid-table — and marks the Done frame Canceled.
func (c *serverConn) streamResponse(rows *gsql.Rows) error {
	if err := c.write(&wire.RowHeader{Columns: rows.Columns(), OnReplicas: rows.OnReplicas()}); err != nil {
		rows.Close()
		return err
	}
	var sent int64
	batch := make([][]any, 0, c.srv.opts.BatchRows)
	canceled := false
	for !canceled && rows.Next() {
		batch = append(batch, rows.Row())
		if len(batch) < c.srv.opts.BatchRows {
			continue
		}
		sent += int64(len(batch))
		if err := c.flushBatch(batch); err != nil {
			rows.Close()
			return err
		}
		batch = batch[:0]
		select {
		case im := <-c.in:
			if im.err != nil {
				rows.Close()
				return im.err
			}
			if _, ok := im.m.(*wire.Cancel); !ok {
				rows.Close()
				return c.protocolError(fmt.Sprintf("unexpected %v mid-stream", im.m.Type()))
			}
			canceled = true
		default:
		}
	}
	streamErr := rows.Err()
	closeErr := rows.Close()
	c.srv.counters.ObserveStatement(sent + int64(len(batch)))
	if canceled {
		c.srv.counters.ObserveCancel()
		return c.finish(&wire.Done{InTxn: c.sess.InTxn(), Canceled: true, Stats: rows.ScanStats()})
	}
	if streamErr == nil {
		streamErr = closeErr
	}
	if streamErr != nil {
		// Mid-stream failure: the Error frame replaces Done, the already
		// shipped batches are void, and the connection stays usable.
		return c.finish(&wire.Error{Code: "statement", Msg: streamErr.Error()})
	}
	if len(batch) > 0 {
		if err := c.write(&wire.RowBatch{Rows: batch}); err != nil {
			return err
		}
	}
	return c.finish(&wire.Done{InTxn: c.sess.InTxn(), Stats: rows.ScanStats()})
}

// resultResponse ships an already-materialized result (writes, DDL, SHOW,
// EXPLAIN, scripts) in the same header/batches/Done shape.
func (c *serverConn) resultResponse(res *gsql.Result) error {
	if err := c.write(&wire.RowHeader{Columns: res.Columns, OnReplicas: res.OnReplicas}); err != nil {
		return err
	}
	for start := 0; start < len(res.Rows); start += c.srv.opts.BatchRows {
		end := start + c.srv.opts.BatchRows
		if end > len(res.Rows) {
			end = len(res.Rows)
		}
		if err := c.write(&wire.RowBatch{Rows: res.Rows[start:end]}); err != nil {
			return err
		}
	}
	c.srv.counters.ObserveStatement(int64(len(res.Rows)))
	return c.finish(&wire.Done{
		Affected: int64(res.Affected), Msg: res.Msg,
		InTxn: c.sess.InTxn(), Stats: res.Scan,
	})
}

// statementError answers a failed statement. The connection stays usable:
// framing is intact, only this statement failed.
func (c *serverConn) statementError(err error) error {
	c.srv.counters.ObserveStatement(0)
	return c.finish(&wire.Error{Code: "statement", Msg: err.Error()})
}

// handshakeError refuses a connection during handshake.
func (c *serverConn) handshakeError(err error) error {
	ferr := c.finish(&wire.Error{Code: "handshake", Msg: err.Error()})
	if ferr == nil {
		ferr = errors.New("handshake refused")
	}
	return ferr
}

// protocolError reports lost framing sync; the caller closes the
// connection after it.
func (c *serverConn) protocolError(msg string) error {
	_ = c.finish(&wire.Error{Code: "protocol", Msg: msg})
	return fmt.Errorf("%w: %s", wire.ErrProtocol, msg)
}

// write frames one message into the buffered writer.
func (c *serverConn) write(m wire.Message) error { return wire.WriteMessage(c.w, m) }

// flushBatch ships one row batch immediately so the client streams.
func (c *serverConn) flushBatch(rows [][]any) error {
	if err := c.write(&wire.RowBatch{Rows: rows}); err != nil {
		return err
	}
	return c.w.Flush()
}

// finish writes a response's final frame and flushes. A statement's final
// frame is where the statement is accounted: before the flush, so the
// server's counters never lag what the client has been told.
func (c *serverConn) finish(m wire.Message) error {
	c.accountStatement()
	if err := c.write(m); err != nil {
		return err
	}
	return c.w.Flush()
}
