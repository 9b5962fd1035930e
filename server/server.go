// Package server is GlobalDB's network edge: a TCP server that speaks the
// length-prefixed binary protocol in server/wire and maps every accepted
// connection onto one gsql session. The session owns the connection's
// transaction state and its DDL-aware plan cache, so prepared statements
// over the wire get exactly the replanning behavior in-process callers get.
//
// Results stream: a SELECT's response is a RowHeader frame, then row
// batches flushed as the prefetching batch cursor pipeline produces them
// (per batch, not per row), then a Done frame carrying the statement's
// per-layer scan counters. A client can send Cancel mid-stream; the server
// notices between batches, closes the cursor (stopping the scans
// mid-table), and answers with a Done marked Canceled.
//
// Shutdown drains gracefully: the listener closes first so new dials are
// refused, in-flight statements run to completion, idle connections close
// immediately, and only after the deadline passes are the stragglers'
// sockets force-closed. A panic inside one connection's statement is
// contained to that connection — it answers with an Error frame, closes,
// and the rest of the server keeps serving.
package server

import (
	"context"
	"errors"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"globaldb"
	"globaldb/internal/obs"
	"globaldb/internal/stats"
)

// DefaultBatchRows is how many rows the server packs into one RowBatch
// frame before flushing, absent an Options override.
const DefaultBatchRows = 128

// Options tunes a Server.
type Options struct {
	// Region is the home region for sessions whose handshake names none.
	// Empty falls back to the cluster's first region.
	Region string
	// BatchRows is the row-batch flush size; 0 means DefaultBatchRows.
	BatchRows int
	// SlowQueryThreshold enables the slow-query log: statements whose
	// server-side latency exceeds it are logged. Zero disables.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives one formatted line per slow statement. Nil
	// falls back to the standard logger.
	SlowQueryLog func(line string)
}

// stmtClasses are the statement-type labels the server's per-type latency
// histograms use. Statements whose leading keyword matches none map to
// "other"; wire-level operations (prepared execution resolves to its SQL's
// class) never add labels at runtime, so the histogram set is fixed.
var stmtClasses = []string{
	"select", "insert", "update", "delete",
	"create", "drop", "begin", "commit", "rollback", "explain", "other",
}

// classifySQL maps a statement to its histogram label by leading keyword.
func classifySQL(sql string) string {
	rest := strings.TrimSpace(sql)
	end := 0
	for end < len(rest) {
		c := rest[end]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			break
		}
		end++
	}
	kw := strings.ToLower(rest[:end])
	for _, class := range stmtClasses {
		if kw == class {
			return class
		}
	}
	return "other"
}

// Server serves the wire protocol over TCP for one cluster.
type Server struct {
	db       *globaldb.DB
	opts     Options
	reg      *obs.Registry
	counters *stats.ServerCounters
	stmtHist map[string]*obs.Histogram // per-statement-type latency, fixed key set
	inFlight *obs.Gauge                // statements currently executing
	slowLog  func(line string)

	mu       sync.Mutex
	lis      net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	drainCh  chan struct{} // closed once Shutdown begins

	wg sync.WaitGroup // accept loop + connection goroutines
}

// New wires a server to an open cluster. Call Start or Serve to listen.
func New(db *globaldb.DB, opts Options) *Server {
	if opts.BatchRows <= 0 {
		opts.BatchRows = DefaultBatchRows
	}
	// Each server homes its metrics on its own registry so concurrent
	// servers (parallel tests, future multi-listener processes) never
	// share counts; cmd/globaldb-server exposes it via Metrics().
	reg := obs.NewRegistry()
	hists := make(map[string]*obs.Histogram, len(stmtClasses))
	for _, class := range stmtClasses {
		hists[class] = reg.Histogram(obs.LabeledName("server_statement_latency_seconds", "type", class))
	}
	slowLog := opts.SlowQueryLog
	if slowLog == nil {
		slowLog = func(line string) { log.Print(line) }
	}
	return &Server{
		db:       db,
		opts:     opts,
		reg:      reg,
		counters: stats.NewServerCounters(reg),
		stmtHist: hists,
		inFlight: reg.Gauge("server_statements_in_flight"),
		slowLog:  slowLog,
		conns:    make(map[net.Conn]struct{}),
		drainCh:  make(chan struct{}),
	}
}

// Metrics returns the server's metrics registry for exposition.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// observeStatement records one statement's server-side latency into the
// per-type histogram and fires the slow-query log when over threshold.
func (s *Server) observeStatement(class, sql string, d time.Duration) {
	h := s.stmtHist[class]
	if h == nil {
		h = s.stmtHist["other"]
	}
	h.Observe(d)
	if t := s.opts.SlowQueryThreshold; t > 0 && d > t {
		s.slowLog("slow query (" + d.Round(10*time.Microsecond).String() + " > " +
			t.String() + "): " + truncateSQL(sql))
	}
}

// truncateSQL bounds a logged statement to keep slow-query lines readable.
func truncateSQL(sql string) string {
	const max = 200
	sql = strings.TrimSpace(sql)
	if len(sql) > max {
		return sql[:max] + "…"
	}
	return sql
}

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// in the background. The listen address is available through Addr.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.lis = lis // visible to Addr before the accept loop spins up
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.Serve(lis)
	}()
	return nil
}

// Serve accepts connections on lis until Shutdown closes it. It returns
// nil on a drain-initiated stop and the accept error otherwise.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		lis.Close()
		return errors.New("server: already shut down")
	}
	s.lis = lis
	s.mu.Unlock()

	for {
		nc, err := lis.Accept()
		if err != nil {
			select {
			case <-s.drainCh:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.counters.ConnOpened()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(nc)
			s.mu.Lock()
			delete(s.conns, nc)
			s.mu.Unlock()
			s.counters.ConnClosed()
		}()
	}
}

// Addr returns the listen address, or nil before Start/Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Stats snapshots the server's connection and statement counters.
func (s *Server) Stats() stats.ServerSnapshot { return s.counters.Snapshot() }

// Shutdown drains the server: the listener closes (new dials are refused),
// idle connections close, in-flight statements finish and then their
// connections close. If ctx expires first, the remaining connections'
// sockets are force-closed; Shutdown still waits for their goroutines to
// unwind before returning ctx's error. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
		if s.lis != nil {
			s.lis.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for nc := range s.conns {
			nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
