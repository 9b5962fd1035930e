// Package globaldb is the public API of GlobalDB, a from-scratch Go
// reproduction of "GaussDB-Global: A Geographically Distributed Database
// System" (ICDE 2024).
//
// A DB is an in-process, geographically simulated cluster: regions
// connected by a modeled WAN, per-region computing nodes with synchronized
// clocks (or a centralized GTM), sharded multi-version storage with
// asynchronous redo replication, RCP-consistent replica reads, and online
// transitions between centralized and clock-based transaction management.
//
// Typical use:
//
//	db, _ := globaldb.Open(globaldb.ThreeCity())
//	defer db.Close()
//	sess := db.Connect("xian")
//	tx, _ := sess.Begin(ctx)
//	tx.Insert(ctx, "accounts", table.Row{int64(1), "alice", 100.0})
//	tx.Commit(ctx)
//
//	q, _ := sess.ReadOnly(ctx, globaldb.AnyStaleness, "accounts")
//	row, found, _ := q.Get(ctx, "accounts", []any{int64(1)})
//
// # Streaming scans
//
// Scans stream: ScanPKRows, ScanIndexRows and ScanTableRows (on both Tx and
// Query) return a Rows iterator that pulls fixed-size pages from storage on
// demand, so a consumer that stops early — a LIMIT, a search, a merge — only
// ships the pages it actually read across the simulated WAN. The page size
// is tuned per scan with ScanOpts.PageSize (DefaultScanPageSize rows per
// RPC when unset) and a ScanOpts.Range bounds the first key column after
// the equality prefix, pushing range predicates into storage:
//
//	rows, _ := q.ScanPKRows(ctx, "orders", []any{int64(1)},
//		globaldb.ScanOpts{Limit: 10, Range: &globaldb.ScanRange{Lo: int64(100)}})
//	defer rows.Close()
//	for rows.Next() {
//		use(rows.Row())
//	}
//	err := rows.Err()
//
// ScanTableRows merges per-shard cursors and yields rows in global
// primary-key order; the materializing ScanPK/ScanIndex helpers remain as
// thin wrappers that drain the corresponding iterator.
//
// # Latency hiding
//
// Scans hide the WAN behind themselves: each shard cursor runs a bounded
// page prefetcher (ScanOpts.Prefetch, double buffering by default) that
// issues the next page's RPC while the current batch is consumed, and a
// multi-shard scan opens every shard's cursor concurrently so all first
// pages travel in parallel. A cross-region merged scan therefore reaches
// its first batch in about one (maximum) round trip instead of one per
// shard, and a multi-page drain approaches max(compute, pipelined-RTT)
// instead of pages x RTT. Rows.ScanStats reports the effect per query:
// pages fetched, prefetch hits (pages ready before they were asked for)
// and cumulative WAN wait, alongside the per-layer row counters — which
// prefetching never changes, since it only reorders when the same pages
// are requested.
//
// # SQL access
//
// Most clients should not use this typed API directly: the globaldb/gsql
// package parses, plans and executes SQL over it (with parameterized
// prepared statements and a DDL-aware plan cache keyed on
// DB.CatalogVersion), and the globaldb/driver package exposes that SQL
// layer through database/sql, streaming result rows off the paged scan
// pipeline:
//
//	sqldb := driver.Open(db, driver.Config{Region: "xian"})
//	st, _ := sqldb.PrepareContext(ctx, "SELECT v FROM kv WHERE k = ?")
//	rows, _ := st.QueryContext(ctx, int64(42))
package globaldb

import (
	"context"
	"errors"
	"fmt"
	"time"

	"globaldb/internal/cluster"
	"globaldb/internal/coordinator"
	"globaldb/internal/datanode"
	"globaldb/internal/placement"
	"globaldb/internal/storage/mvcc"
	"globaldb/internal/table"
	"globaldb/internal/ts"
)

// Re-exported configuration types and helpers.
type (
	// Config describes a cluster deployment (regions, links, shards,
	// replication, transaction management mode).
	Config = cluster.Config
	// LinkSpec declares a WAN link between two regions.
	LinkSpec = cluster.LinkSpec
	// Schema describes a table.
	Schema = table.Schema
	// Column describes a table column.
	Column = table.Column
	// Index describes a secondary index.
	Index = table.Index
	// Row is a tuple of column values.
	Row = table.Row
)

// Column kinds, re-exported.
const (
	Int64   = table.Int64
	Float64 = table.Float64
	String  = table.String
	Bytes   = table.Bytes
	Bool    = table.Bool
)

// AnyStaleness disables the freshness bound on read-only queries.
const AnyStaleness = coordinator.AnyStaleness

// ThreeCity returns the paper's three-city topology (Xi'an, Langzhong,
// Dongguan; 25/35/55 ms RTTs).
func ThreeCity() Config { return cluster.ThreeCity() }

// OneRegion returns the paper's single-datacenter topology with injected
// inter-node latency.
func OneRegion(injectedRTT time.Duration) Config { return cluster.OneRegion(injectedRTT) }

// Errors.
var (
	// ErrNotFound is returned by lookups that match no row.
	ErrNotFound = errors.New("globaldb: row not found")
	// ErrSnapshotTooOld is returned by a read whose snapshot version GC has
	// passed: a Query kept for longer than about ten seconds, or a Tx left
	// open for more than a minute. Start a new one. See the README, "Version GC
	// and `snapshot too old`".
	ErrSnapshotTooOld = mvcc.ErrSnapshotTooOld
)

// DB is an open cluster.
type DB struct {
	c *cluster.Cluster
}

// Open builds and starts a cluster.
func Open(cfg Config) (*DB, error) {
	c, err := cluster.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{c: c}, nil
}

// Close stops the cluster's background activity.
func (db *DB) Close() { db.c.Close() }

// Cluster exposes the underlying cluster for benchmarks, failure injection
// and observability.
func (db *DB) Cluster() *cluster.Cluster { return db.c }

// CreateTable registers a schema cluster-wide, stamping the DDL with a
// commit timestamp that read-on-replica queries gate on.
func (db *DB) CreateTable(ctx context.Context, s *Schema) error {
	return db.c.CreateTable(ctx, s)
}

// DropTable removes a table.
func (db *DB) DropTable(ctx context.Context, name string) error {
	return db.c.DropTable(ctx, name)
}

// TransitionToGClock migrates the live cluster to decentralized clock-based
// transaction management (zero downtime).
func (db *DB) TransitionToGClock(ctx context.Context) error {
	return db.c.TransitionToGClock(ctx)
}

// TransitionToGTM migrates back to centralized management, e.g. after a
// clock failure.
func (db *DB) TransitionToGTM(ctx context.Context) error {
	return db.c.TransitionToGTM(ctx)
}

// Mode reports the current transaction management mode.
func (db *DB) Mode() ts.Mode { return db.c.Mode() }

// Placement types, re-exported for the geographic load-balancing advisor
// (the paper's future-work "transparent load balancing based on
// geographical access patterns").
type (
	// PlacementMove is one recommended primary relocation.
	PlacementMove = placement.Move
	// PlacementConfig tunes the advisor.
	PlacementConfig = placement.Config
)

// DefaultPlacementConfig returns conservative advisor settings.
func DefaultPlacementConfig() PlacementConfig { return placement.DefaultConfig() }

// AdvisePlacement recommends moving shard primaries toward the regions
// that dominate their traffic, based on access counts accumulated since
// the cluster opened (or since ResetPlacementWindow).
func (db *DB) AdvisePlacement(cfg PlacementConfig) []PlacementMove {
	return db.c.AdvisePlacement(cfg)
}

// ResetPlacementWindow clears the advisor's access counts, starting a new
// observation window.
func (db *DB) ResetPlacementWindow() { db.c.Placement.Reset() }

// MovePrimary relocates a shard's primary into the target region by
// catching up and promoting that region's replica. In-flight transactions
// on the shard may abort and retry, as during failover.
func (db *DB) MovePrimary(ctx context.Context, shard int, region string) error {
	return db.c.MovePrimary(ctx, shard, region)
}

// Regions lists the cluster's regions.
func (db *DB) Regions() []string { return db.c.Regions() }

// Connect returns a session homed at the region's computing node.
func (db *DB) Connect(region string) (*Session, error) {
	cn := db.c.CN(region)
	if cn == nil {
		return nil, fmt.Errorf("globaldb: no CN in region %q", region)
	}
	return &Session{db: db, cn: cn}, nil
}

// Session is a client connection to one CN.
type Session struct {
	db *DB
	cn *coordinator.CN
}

// Region returns the session's home region.
func (s *Session) Region() string { return s.cn.Region() }

// CN exposes the session's computing node (stats, tests).
func (s *Session) CN() *coordinator.CN { return s.cn }

// Begin starts a read-write transaction. Until Commit or Abort it holds
// version GC back to its snapshot, so end every transaction you begin.
func (s *Session) Begin(ctx context.Context) (*Tx, error) {
	t, err := s.cn.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &Tx{readCore: readCore{sess: s, src: t}, txn: t}, nil
}

// ReadOnly starts a read-only query with a staleness bound; tables names
// the relations the query will touch (for the DDL visibility gate). A Query
// has no Close and holds nothing back: read with it promptly, and expect
// ErrSnapshotTooOld from one kept for more than about ten seconds.
func (s *Session) ReadOnly(ctx context.Context, bound time.Duration, tables ...string) (*Query, error) {
	ids := make([]uint64, 0, len(tables))
	for _, name := range tables {
		sch, err := s.db.c.Catalog.Get(name)
		if err != nil {
			return nil, err
		}
		ids = append(ids, sch.ID)
	}
	ro, err := s.cn.ReadOnly(ctx, bound, ids...)
	if err != nil {
		return nil, err
	}
	return &Query{readCore: readCore{sess: s, src: ro}, ro: ro}, nil
}

// ReadOnce starts a query for one point read, Get, on a shard primary. Under
// GClock its snapshot skips the invocation wait a Begin or a primary-served
// ReadOnly pays: a single read sees every commit acknowledged before it
// began, and the wait only keeps a snapshot stable for a second read. So the
// query refuses a second Get, and any scan, with an error. The Get instead
// waits, if need be, until the clock has passed the commit of the version it
// returns, so every read that starts after it sees that version too.
func (s *Session) ReadOnce(ctx context.Context) (*Query, error) {
	ro, err := s.cn.ReadOnce(ctx)
	if err != nil {
		return nil, err
	}
	return &Query{readCore: readCore{sess: s, src: ro}, ro: ro}, nil
}

// schemaOf resolves a table name.
func (s *Session) schemaOf(name string) (*Schema, error) {
	return s.db.c.Catalog.Get(name)
}

// shardOfRow picks the row's shard from its distribution column.
func (s *Session) shardOfRow(sch *Schema, r Row) int {
	return s.db.c.ShardOf(r[sch.ShardBy])
}

// Tx is a read-write transaction. Its reads (the embedded read core) are
// served by shard primaries at the transaction's snapshot and observe the
// transaction's own writes.
type Tx struct {
	readCore
	txn *coordinator.Txn
}

// Snapshot returns the transaction's snapshot timestamp.
func (tx *Tx) Snapshot() ts.Timestamp { return tx.txn.Snapshot() }

// CommitTS returns the transaction's commit timestamp (zero before a
// successful Commit). Replica reads observe the transaction once the RCP
// reaches this timestamp.
func (tx *Tx) CommitTS() ts.Timestamp { return tx.txn.CommitTS() }

// Insert writes a full row (and its index entries). It is an upsert at the
// storage level; primary-key uniqueness violations surface as write-write
// conflicts when rows race. The write is buffered at the CN (see Update), so
// such a conflict is reported by Commit, not by Insert.
func (tx *Tx) Insert(ctx context.Context, tableName string, r Row) error {
	if err := tx.writeRow(ctx, tableName, r); err != nil {
		return err
	}
	// Advisory planner statistic; drift (aborts, re-inserted keys) is
	// acceptable — see Catalog.BumpRowEstimate.
	if sch, err := tx.sess.schemaOf(tableName); err == nil {
		tx.sess.db.c.Catalog.BumpRowEstimate(sch.ID, 1)
	}
	return nil
}

// Update rewrites a full row. Indexed column values must not change (index
// entries are re-written, not migrated), matching how the TPC-C and
// Sysbench schemas use indexes.
//
// Writes are buffered at the CN and travel to the shard primary with the
// commit, so Update itself costs no round trip and rarely fails. A
// write-write conflict (mvcc.ErrWriteConflict) surfaces where the buffer
// reaches the primary: from Commit, from a scan of the same shard later in
// the transaction (the buffer is flushed so the scan sees it), or from the
// write that fills a shard's 256-op buffer. The first transaction to get
// there wins; the loser's Commit fails and leaves nothing behind.
func (tx *Tx) Update(ctx context.Context, tableName string, r Row) error {
	return tx.writeRow(ctx, tableName, r)
}

func (tx *Tx) writeRow(ctx context.Context, tableName string, r Row) error {
	sch, err := tx.sess.schemaOf(tableName)
	if err != nil {
		return err
	}
	pk, err := sch.PrimaryKey(r)
	if err != nil {
		return err
	}
	val, err := sch.EncodeRow(r)
	if err != nil {
		return err
	}
	ops := []opKV{{key: pk, value: val}}
	for _, ix := range sch.Indexes {
		ik, err := sch.IndexKey(ix, r)
		if err != nil {
			return err
		}
		ops = append(ops, opKV{key: ik, value: pk})
	}
	if sch.SyncReplicated {
		tx.txn.RequireSyncCommit()
	}
	return tx.applyOps(ctx, tx.sess.shardOfRow(sch, r), ops)
}

// Delete removes the row with the given primary key values. The row is
// read first (its index entries are derived from it); a caller that already
// holds the row uses DeleteRow and saves the round trip.
func (tx *Tx) Delete(ctx context.Context, tableName string, pkVals []any) error {
	r, found, err := tx.Get(ctx, tableName, pkVals)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: %s %v", ErrNotFound, tableName, pkVals)
	}
	return tx.DeleteRow(ctx, tableName, r)
}

// DeleteRow removes a row the caller has already read in this transaction
// (and its index entries) without reading it again. Like every write it is
// buffered; see Update for where conflicts surface.
func (tx *Tx) DeleteRow(ctx context.Context, tableName string, r Row) error {
	sch, err := tx.sess.schemaOf(tableName)
	if err != nil {
		return err
	}
	pk, err := sch.PrimaryKey(r)
	if err != nil {
		return err
	}
	ops := []opKV{{key: pk, del: true}}
	for _, ix := range sch.Indexes {
		ik, err := sch.IndexKey(ix, r)
		if err != nil {
			return err
		}
		ops = append(ops, opKV{key: ik, del: true})
	}
	if sch.SyncReplicated {
		tx.txn.RequireSyncCommit()
	}
	if err := tx.applyOps(ctx, tx.sess.shardOfRow(sch, r), ops); err != nil {
		return err
	}
	tx.sess.db.c.Catalog.BumpRowEstimate(sch.ID, -1)
	return nil
}

type opKV struct {
	key, value []byte
	del        bool
}

func (tx *Tx) applyOps(ctx context.Context, shard int, ops []opKV) error {
	wops := make([]datanode.WriteOp, 0, len(ops))
	for _, op := range ops {
		wops = append(wops, datanode.WriteOp{Delete: op.del, Key: op.key, Value: op.value})
	}
	return tx.txn.WriteBatch(ctx, shard, wops)
}

// Commit finishes the transaction (single-shard fast path or 2PC), waiting
// out the commit wait before returning.
func (tx *Tx) Commit(ctx context.Context) error { return tx.txn.Commit(ctx) }

// Abort rolls the transaction back.
func (tx *Tx) Abort(ctx context.Context) error { return tx.txn.Abort(ctx) }

// Query is a read-only query context. Its reads (the embedded read core) are
// served from replicas at the RCP when the staleness bound and the DDL gate
// allow, otherwise from shard primaries at a fresh snapshot.
type Query struct {
	readCore
	ro *coordinator.ROTxn
}

// OnReplicas reports whether the query is served from replicas.
func (q *Query) OnReplicas() bool { return q.ro.OnReplicas() }

// Snapshot returns the query's snapshot timestamp.
func (q *Query) Snapshot() ts.Timestamp { return q.ro.Snapshot() }

// snapshotSource is what a read needs from the coordinator: point reads and
// paged cursors on one shard, or on all of them, at some snapshot. The paper's
// read-on-replica design (Sec. V) makes a replica read the same read at a
// different snapshot source: *coordinator.Txn serves the transaction's
// snapshot from shard primaries (observing its own writes), *coordinator.ROTxn
// serves the RCP — or a fresh snapshot — from skyline-selected replicas.
type snapshotSource interface {
	Get(ctx context.Context, shard int, key []byte) ([]byte, bool, error)
	ScanCursor(ctx context.Context, shard int, spec coordinator.ScanSpec) *coordinator.ScanCursor
	ScanCursors(ctx context.Context, shards int, spec coordinator.ScanSpec) []coordinator.BatchCursor
}

// readCore is the typed read API — Get and the five scans — written once over
// a snapshotSource. Tx and Query both embed it (its methods are theirs, and
// documented as such), so they differ only in how they are constructed
// (Session.Begin, Session.ReadOnly) and in Tx's write methods.
type readCore struct {
	sess *Session
	src  snapshotSource
}

// Get fetches one row by primary key at the snapshot of the Tx or Query it is
// called on; on a Tx it observes the transaction's own writes.
func (c *readCore) Get(ctx context.Context, tableName string, pkVals []any) (Row, bool, error) {
	sch, err := c.sess.schemaOf(tableName)
	if err != nil {
		return nil, false, err
	}
	key, err := sch.PrimaryKeyFromValues(pkVals)
	if err != nil {
		return nil, false, err
	}
	shard := c.sess.db.c.ShardOf(pkVals[pkPos(sch)])
	v, found, err := c.src.Get(ctx, shard, key)
	if err != nil || !found {
		return nil, false, err
	}
	r, err := sch.DecodeRow(v)
	return r, err == nil, err
}

// pkPos returns the position within pkVals of the distribution column.
// Tables distribute by a PK column (validated at creation time for this
// API); for TPC-C-style schemas that is the leading warehouse ID.
func pkPos(sch *Schema) int {
	for i, p := range sch.PK {
		if p == sch.ShardBy {
			return i
		}
	}
	return 0
}

// ScanPK scans rows whose primary key starts with pkPrefix, in key order.
// The prefix must include the distribution column so the scan is
// single-shard (GaussDB's co-located scan). It drains a streaming
// ScanPKRows iterator; limit <= 0 means no limit.
func (c *readCore) ScanPK(ctx context.Context, tableName string, pkPrefix []any, limit int) ([]Row, error) {
	r, err := c.ScanPKRows(ctx, tableName, pkPrefix, ScanOpts{Limit: limit})
	if err != nil {
		return nil, err
	}
	return drainRows(r)
}

// ScanIndex scans a secondary index by a prefix of its columns and returns
// the matching rows (via primary-key lookups on the same shard). It drains
// a streaming ScanIndexRows iterator.
func (c *readCore) ScanIndex(ctx context.Context, tableName, indexName string, prefix []any, limit int) ([]Row, error) {
	r, err := c.ScanIndexRows(ctx, tableName, indexName, prefix, ScanOpts{Limit: limit})
	if err != nil {
		return nil, err
	}
	return drainRows(r)
}

// Tables lists the names of all tables in the catalog.
func (db *DB) Tables() []string {
	schemas := db.c.Catalog.Tables()
	names := make([]string, 0, len(schemas))
	for _, s := range schemas {
		names = append(names, s.Name)
	}
	return names
}

// Schema returns the schema of the named table.
func (db *DB) Schema(name string) (*Schema, error) { return db.c.Catalog.Get(name) }

// RowEstimate returns a table's approximate row count — an advisory planner
// statistic maintained by committed inserts and deletes (zero if unknown).
func (db *DB) RowEstimate(tableName string) int64 {
	sch, err := db.c.Catalog.Get(tableName)
	if err != nil {
		return 0
	}
	return db.c.Catalog.RowEstimate(sch.ID)
}

// CatalogVersion returns a monotonically increasing value that changes with
// every DDL commit (the catalog's maximum DDL timestamp). Plan caches key
// their validity on it: a cached plan built at one version must be
// discarded once the version moves, since a CREATE/DROP may have changed
// any schema the plan resolved.
func (db *DB) CatalogVersion() uint64 { return uint64(db.c.Catalog.MaxDDLTS()) }

// indexOf resolves a table's schema and one of its secondary indexes by name.
func indexOf(s *Session, tableName, indexName string) (*Schema, table.Index, error) {
	sch, err := s.schemaOf(tableName)
	if err != nil {
		return nil, table.Index{}, err
	}
	for _, ix := range sch.Indexes {
		if ix.Name == indexName {
			return sch, ix, nil
		}
	}
	return nil, table.Index{}, fmt.Errorf("globaldb: table %s has no index %q", tableName, indexName)
}
