package driver

import (
	"context"
	"strconv"

	"globaldb/gsql"
	"globaldb/server/wire"
)

// ClientSession is a thin, single-connection network client for tools that
// want gsql.Result-shaped answers without database/sql in the way — the
// interactive shell's network mode. Like a gsql.Session it is not safe for
// concurrent use.
type ClientSession struct {
	wc *wireClient
}

// Dial connects to a network server and runs the handshake with the
// Config's region and staleness.
func Dial(ctx context.Context, addr string, cfg Config) (*ClientSession, error) {
	wc, err := dialWire(ctx, addr, cfg)
	if err != nil {
		return nil, err
	}
	return &ClientSession{wc: wc}, nil
}

// result assembles the gsql.Result shape from a collected response; the
// Done frame's scan counters make network clients report the same pushdown
// observability in-process callers see.
func clientResult(done *wire.Done, hdr *wire.RowHeader, rows [][]any) *gsql.Result {
	return &gsql.Result{
		Columns:      hdr.Columns,
		Rows:         rows,
		Affected:     int(done.Affected),
		Msg:          done.Msg,
		OnReplicas:   hdr.OnReplicas,
		Scan:         done.Stats,
		JoinStrategy: done.JoinStrategy,
	}
}

// ExecScript runs SQL — one statement with args bound, or a
// multi-statement script when args is empty — and materializes the (last)
// result.
func (s *ClientSession) ExecScript(ctx context.Context, sql string, args ...any) (*gsql.Result, error) {
	end := s.wc.bound(ctx)
	done, hdr, rows, err := s.wc.collect(&wire.Query{SQL: sql, Args: args})
	if err = end(err); err != nil {
		return nil, err
	}
	return clientResult(done, hdr, rows), nil
}

// Prepare parses a statement server-side for repeated execution.
func (s *ClientSession) Prepare(ctx context.Context, sql string) (*ClientStmt, error) {
	s.wc.stmtSeq++
	name := "c" + strconv.Itoa(s.wc.stmtSeq)
	end := s.wc.bound(ctx)
	n, err := s.wc.parse(name, sql)
	if err = end(err); err != nil {
		return nil, err
	}
	return &ClientStmt{sess: s, name: name, numParams: n}, nil
}

// ServerStats fetches the server's live counters and per-statement-type
// latency summaries over the admin Stats frame.
func (s *ClientSession) ServerStats() (*wire.StatsResult, error) {
	return roundTrip[*wire.StatsResult](s.wc, &wire.Stats{})
}

// Region reports where the server homed the session (from the handshake).
func (s *ClientSession) Region() string { return s.wc.region }

// Mode reports the cluster's transaction mode (from the handshake).
func (s *ClientSession) Mode() string { return s.wc.mode }

// Close tears the connection down.
func (s *ClientSession) Close() error { return s.wc.close() }

// ClientStmt is a server-side prepared statement owned by a ClientSession.
type ClientStmt struct {
	sess      *ClientSession
	name      string
	numParams int
	closed    bool
}

// NumParams reports how many arguments Exec binds.
func (st *ClientStmt) NumParams() int { return st.numParams }

// Exec runs the prepared statement and materializes its result.
func (st *ClientStmt) Exec(ctx context.Context, args ...any) (*gsql.Result, error) {
	end := st.sess.wc.bound(ctx)
	done, hdr, rows, err := st.sess.wc.collect(&wire.Execute{Name: st.name, Args: args})
	if err = end(err); err != nil {
		return nil, err
	}
	return clientResult(done, hdr, rows), nil
}

// Close releases the server-side statement.
func (st *ClientStmt) Close() error {
	if st.closed || st.sess.wc.broken {
		return nil
	}
	st.closed = true
	_, err := roundTrip[*wire.Done](st.sess.wc, &wire.CloseStmt{Name: st.name})
	return err
}
