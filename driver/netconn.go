package driver

import (
	"bufio"
	"context"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"syscall"
	"time"

	"globaldb/server/wire"
)

// wireClient is one TCP connection to a GlobalDB server, speaking the
// server/wire protocol.
type wireClient struct {
	nc net.Conn
	br *bufio.Reader
	rd *wire.Reader
	w  *bufio.Writer

	// broken marks a connection whose framing can no longer be trusted
	// (I/O error, protocol violation, a round trip cut by its context).
	// database/sql drops it through IsValid.
	broken bool
	// inTxn mirrors the server session's transaction state, reported by
	// every Done frame; ResetSession rolls back a transaction left open.
	inTxn bool
	// stmtSeq numbers client-generated prepared-statement names.
	stmtSeq int
	// region and mode echo the server's HelloOK: where the session is
	// homed and the cluster's transaction mode.
	region string
	mode   string
}

// dialWire connects and runs the handshake, carrying the Config's region
// and staleness the same way the in-process connector applies them. ctx
// bounds the handshake as well as the TCP connect.
func dialWire(ctx context.Context, addr string, cfg Config) (*wireClient, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(nc)
	wc := &wireClient{nc: nc, br: br, rd: wire.NewReader(br), w: bufio.NewWriter(nc)}
	hello := &wire.Hello{Version: wire.ProtocolVersion, Region: cfg.Region, Staleness: cfg.stalenessOption()}
	end := wc.bound(ctx)
	var m wire.Message
	if err = wc.send(hello); err == nil {
		m, err = wc.recv()
	}
	if err = end(err); err != nil {
		nc.Close()
		return nil, err
	}
	switch m := m.(type) {
	case *wire.HelloOK:
		wc.region, wc.mode = m.Region, m.Mode
		return wc, nil
	case *wire.Error:
		nc.Close()
		return nil, fmt.Errorf("globaldb driver: server refused connection: %s", m.Msg)
	default:
		nc.Close()
		return nil, fmt.Errorf("globaldb driver: unexpected handshake reply %v", m.Type())
	}
}

// stalenessOption renders the Config's replica-read setting in the DSN
// grammar the handshake carries.
func (cfg Config) stalenessOption() string {
	switch {
	case cfg.Staleness > 0:
		return cfg.Staleness.String()
	case cfg.ReplicaReads:
		return "any"
	default:
		return ""
	}
}

func (wc *wireClient) close() error { return wc.nc.Close() }

// bound lets ctx cut one round trip: if ctx ends while the round trip
// runs, a past deadline on the socket fails the blocked read or write at
// once. The returned end disarms it. When the context cut the round trip,
// or raced its finish, end marks the connection broken — its place in the
// frame stream is unknown — and returns ctx.Err() in place of err. A
// context that cannot end arms nothing.
func (wc *wireClient) bound(ctx context.Context) (end func(err error) error) {
	if ctx.Done() == nil {
		return sameErr
	}
	stop := context.AfterFunc(ctx, func() { wc.nc.SetDeadline(time.Unix(1, 0)) })
	return func(err error) error {
		if stop() {
			return err
		}
		wc.broken = true
		return ctx.Err()
	}
}

func sameErr(err error) error { return err }

// healthy reports whether an idle connection is still usable. An idle
// connection must have no pending bytes, so a non-blocking MSG_PEEK
// distinguishes the three cases without consuming anything: EAGAIN means
// the peer is quiet and alive, readable data means framing is already
// violated, and EOF/error means the server closed or died.
func (wc *wireClient) healthy() bool {
	if wc.br.Buffered() > 0 {
		wc.broken = true
		return false
	}
	sc, ok := wc.nc.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		wc.broken = true
		return false
	}
	alive := false
	rerr := rc.Read(func(fd uintptr) bool {
		var buf [1]byte
		n, _, err := syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		alive = n <= 0 && (err == syscall.EAGAIN || err == syscall.EWOULDBLOCK)
		return true // never block waiting for readability
	})
	if rerr != nil || !alive {
		wc.broken = true
		return false
	}
	return true
}

func (wc *wireClient) send(m wire.Message) error {
	if wc.broken {
		return errBrokenConn
	}
	if err := wire.WriteMessage(wc.w, m); err != nil {
		wc.broken = true
		return err
	}
	if err := wc.w.Flush(); err != nil {
		wc.broken = true
		return err
	}
	return nil
}

func (wc *wireClient) recv() (wire.Message, error) {
	m, err := wc.rd.ReadMessage()
	if err != nil {
		wc.broken = true
		return nil, err
	}
	return m, nil
}

var errBrokenConn = errors.New("globaldb driver: connection is broken")

// remoteError converts a server Error frame. Statement errors leave the
// connection usable; anything else means the server is closing it.
func (wc *wireClient) remoteError(e *wire.Error) error {
	if e.Code != "statement" {
		wc.broken = true
	}
	return errors.New(e.Msg)
}

// startStream sends a statement request and reads through the response's
// RowHeader, leaving the row frames for the caller to consume.
func (wc *wireClient) startStream(req wire.Message) (*wire.RowHeader, error) {
	if err := wc.send(req); err != nil {
		return nil, err
	}
	m, err := wc.recv()
	if err != nil {
		return nil, err
	}
	switch m := m.(type) {
	case *wire.RowHeader:
		return m, nil
	case *wire.Error:
		return nil, wc.remoteError(m)
	default:
		wc.broken = true
		return nil, fmt.Errorf("globaldb driver: unexpected %v starting a stream", m.Type())
	}
}

// collect runs a statement and materializes its whole response.
func (wc *wireClient) collect(req wire.Message) (*wire.Done, *wire.RowHeader, [][]any, error) {
	hdr, err := wc.startStream(req)
	if err != nil {
		return nil, nil, nil, err
	}
	var rows [][]any
	for {
		m, err := wc.recv()
		if err != nil {
			return nil, nil, nil, err
		}
		switch m := m.(type) {
		case *wire.RowBatch:
			rows = append(rows, m.Rows...)
		case *wire.Done:
			wc.inTxn = m.InTxn
			return m, hdr, rows, nil
		case *wire.Error:
			return nil, nil, nil, wc.remoteError(m)
		default:
			wc.broken = true
			return nil, nil, nil, fmt.Errorf("globaldb driver: unexpected %v mid-stream", m.Type())
		}
	}
}

// cancelStream aborts an in-flight stream: send Cancel, then drain until
// the server's terminal frame. The server stops between batches, so only
// frames already in flight cross the wire.
func (wc *wireClient) cancelStream() error {
	if err := wc.send(&wire.Cancel{}); err != nil {
		return err
	}
	for {
		m, err := wc.recv()
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case *wire.RowBatch:
			// already in flight when the cancel landed; drop it
		case *wire.Done:
			wc.inTxn = m.InTxn
			return nil
		case *wire.Error:
			return nil
		default:
			wc.broken = true
			return fmt.Errorf("globaldb driver: unexpected %v draining a canceled stream", m.Type())
		}
	}
}

// parse prepares a named statement server-side.
func (wc *wireClient) parse(name, sql string) (int, error) {
	if err := wc.send(&wire.Parse{Name: name, SQL: sql}); err != nil {
		return 0, err
	}
	m, err := wc.recv()
	if err != nil {
		return 0, err
	}
	switch m := m.(type) {
	case *wire.ParseOK:
		return m.NumParams, nil
	case *wire.Error:
		return 0, wc.remoteError(m)
	default:
		wc.broken = true
		return 0, fmt.Errorf("globaldb driver: unexpected %v answering Parse", m.Type())
	}
}

// roundTrip sends a request expecting a single terminal frame of type T.
func roundTrip[T wire.Message](wc *wireClient, req wire.Message) (T, error) {
	var zero T
	if err := wc.send(req); err != nil {
		return zero, err
	}
	m, err := wc.recv()
	if err != nil {
		return zero, err
	}
	if e, ok := m.(*wire.Error); ok {
		return zero, wc.remoteError(e)
	}
	t, ok := m.(T)
	if !ok {
		wc.broken = true
		return zero, fmt.Errorf("globaldb driver: unexpected %v", m.Type())
	}
	return t, nil
}

// reset readies the connection for a new logical user (rolls back any open
// transaction server-side).
func (wc *wireClient) reset() error {
	if _, err := roundTrip[*wire.Done](wc, &wire.Reset{}); err != nil {
		return err
	}
	wc.inTxn = false
	return nil
}

// netConn is one database/sql connection over TCP, owning its socket. Like
// the in-process conn it relies on database/sql's per-connection
// serialization; one wireClient never sees concurrent statements.
type netConn struct {
	connector *NetConnector
	wc        *wireClient
	closed    bool
}

var (
	_ sqldriver.Conn               = (*netConn)(nil)
	_ sqldriver.ConnPrepareContext = (*netConn)(nil)
	_ sqldriver.ConnBeginTx        = (*netConn)(nil)
	_ sqldriver.ExecerContext      = (*netConn)(nil)
	_ sqldriver.QueryerContext     = (*netConn)(nil)
	_ sqldriver.Pinger             = (*netConn)(nil)
	_ sqldriver.SessionResetter    = (*netConn)(nil)
	_ sqldriver.Validator          = (*netConn)(nil)
)

func (c *netConn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *netConn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	c.wc.stmtSeq++
	name := "s" + strconv.Itoa(c.wc.stmtSeq)
	end := c.wc.bound(ctx)
	n, err := c.wc.parse(name, query)
	if err = end(err); err != nil {
		return nil, err
	}
	return &netStmt{conn: c, name: name, numParams: n}, nil
}

// Close closes the socket and frees the connector slot.
func (c *netConn) Close() error {
	if !c.closed {
		c.closed = true
		c.connector.release(c.wc)
	}
	return nil
}

func (c *netConn) Begin() (sqldriver.Tx, error) {
	return c.BeginTx(context.Background(), sqldriver.TxOptions{})
}

// BeginTx mirrors the in-process conn's contract: snapshot-isolated
// read-write transactions only.
func (c *netConn) BeginTx(ctx context.Context, opts sqldriver.TxOptions) (sqldriver.Tx, error) {
	if sqldriver.IsolationLevel(0) != opts.Isolation {
		return nil, fmt.Errorf("globaldb driver: only the default isolation level is supported")
	}
	if opts.ReadOnly {
		return nil, fmt.Errorf("globaldb driver: read-only transactions are not supported; use a staleness-configured connection for replica reads")
	}
	end := c.wc.bound(ctx)
	_, _, _, err := c.wc.collect(&wire.Query{SQL: "BEGIN"})
	if err = end(err); err != nil {
		return nil, err
	}
	return &netTx{ctx: ctx, wc: c.wc}, nil
}

func (c *netConn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	vals, err := namedValues(args)
	if err != nil {
		return nil, err
	}
	end := c.wc.bound(ctx)
	done, _, _, err := c.wc.collect(&wire.Query{SQL: query, Args: vals})
	if err = end(err); err != nil {
		return nil, err
	}
	return result{affected: done.Affected}, nil
}

func (c *netConn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := namedValues(args)
	if err != nil {
		return nil, err
	}
	end := c.wc.bound(ctx)
	hdr, err := c.wc.startStream(&wire.Query{SQL: query, Args: vals})
	if err = end(err); err != nil {
		return nil, err
	}
	return &wireRows{ctx: ctx, wc: c.wc, cols: hdr.Columns}, nil
}

func (c *netConn) Ping(ctx context.Context) error {
	end := c.wc.bound(ctx)
	_, err := roundTrip[*wire.Pong](c.wc, &wire.Ping{})
	return end(err)
}

// ResetSession readies an idle connection before database/sql hands it out
// again: a socket whose server went away returns ErrBadConn, so
// database/sql retries on a fresh dial instead of failing the statement,
// and a transaction the previous user abandoned is rolled back.
func (c *netConn) ResetSession(ctx context.Context) error {
	if c.wc.broken {
		return sqldriver.ErrBadConn
	}
	if !c.wc.healthy() {
		poolHealthFails.Inc()
		return sqldriver.ErrBadConn
	}
	if c.wc.inTxn {
		end := c.wc.bound(ctx)
		if err := end(c.wc.reset()); err != nil {
			return sqldriver.ErrBadConn
		}
	}
	return nil
}

// IsValid lets database/sql drop broken connections instead of reusing
// them.
func (c *netConn) IsValid() bool { return !c.wc.broken }

// netStmt is a server-side prepared statement reached by name.
type netStmt struct {
	conn      *netConn
	name      string
	numParams int
	closed    bool
}

var (
	_ sqldriver.Stmt             = (*netStmt)(nil)
	_ sqldriver.StmtExecContext  = (*netStmt)(nil)
	_ sqldriver.StmtQueryContext = (*netStmt)(nil)
)

func (s *netStmt) Close() error {
	if s.closed || s.conn.wc.broken {
		return nil
	}
	s.closed = true
	_, err := roundTrip[*wire.Done](s.conn.wc, &wire.CloseStmt{Name: s.name})
	return err
}

func (s *netStmt) NumInput() int { return s.numParams }

func (s *netStmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	return s.ExecContext(context.Background(), plainValues(args))
}

func (s *netStmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	return s.QueryContext(context.Background(), plainValues(args))
}

func (s *netStmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	vals, err := namedValues(args)
	if err != nil {
		return nil, err
	}
	end := s.conn.wc.bound(ctx)
	done, _, _, err := s.conn.wc.collect(&wire.Execute{Name: s.name, Args: vals})
	if err = end(err); err != nil {
		return nil, err
	}
	return result{affected: done.Affected}, nil
}

func (s *netStmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := namedValues(args)
	if err != nil {
		return nil, err
	}
	end := s.conn.wc.bound(ctx)
	hdr, err := s.conn.wc.startStream(&wire.Execute{Name: s.name, Args: vals})
	if err = end(err); err != nil {
		return nil, err
	}
	return &wireRows{ctx: ctx, wc: s.conn.wc, cols: hdr.Columns}, nil
}

// netTx adapts the server session's explicit transaction. database/sql
// keeps BeginTx's context for the transaction's lifetime, so it bounds
// Commit and Rollback too.
type netTx struct {
	ctx context.Context
	wc  *wireClient
}

func (t *netTx) Commit() error { return t.finish("COMMIT") }

func (t *netTx) Rollback() error { return t.finish("ROLLBACK") }

func (t *netTx) finish(sql string) error {
	end := t.wc.bound(t.ctx)
	_, _, _, err := t.wc.collect(&wire.Query{SQL: sql})
	return end(err)
}

// wireRows streams a statement's response frames. Rows arrive in batches;
// Next steps through the current batch and pulls the next frame when it
// runs out. Closing before the terminal frame cancels the server-side
// stream, which stops the scans mid-table.
type wireRows struct {
	ctx    context.Context
	wc     *wireClient
	cols   []string
	batch  [][]any
	bi     int
	done   bool // terminal frame consumed
	closed bool
}

func (r *wireRows) Columns() []string { return r.cols }

func (r *wireRows) Next(dest []sqldriver.Value) error {
	if r.closed {
		return io.EOF
	}
	if err := r.ctx.Err(); err != nil && !r.done {
		// Abort mid-scan: cancel server-side, drain, surface the
		// context's error rather than the remaining rows.
		r.closed = true
		_ = r.wc.cancelStream()
		return err
	}
	for r.bi >= len(r.batch) {
		if r.done {
			return io.EOF
		}
		end := r.wc.bound(r.ctx)
		m, err := r.wc.recv()
		if err = end(err); err != nil {
			return err
		}
		switch m := m.(type) {
		case *wire.RowBatch:
			r.batch, r.bi = m.Rows, 0
		case *wire.Done:
			r.wc.inTxn = m.InTxn
			r.done = true
		case *wire.Error:
			r.done = true
			return r.wc.remoteError(m)
		default:
			r.wc.broken = true
			return fmt.Errorf("globaldb driver: unexpected %v mid-stream", m.Type())
		}
	}
	row := r.batch[r.bi]
	r.bi++
	for i, v := range row {
		dest[i] = v
	}
	return nil
}

func (r *wireRows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.done {
		return nil
	}
	return r.wc.cancelStream()
}
