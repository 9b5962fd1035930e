// Package driver implements a database/sql/driver for GlobalDB, making the
// idiomatic Go database surface the front door to the cluster: standard
// connections, parameterized prepared statements whose plans are cached in
// the SQL layer, context-aware queries, transactions, and result rows that
// stream off the paged scan pipeline instead of materializing.
//
// The driver speaks two transports. In process, with a *globaldb.DB in
// hand, build a connector directly or register the cluster under a name:
//
//	db, _ := globaldb.Open(globaldb.ThreeCity())
//	sqldb := sql.OpenDB(driver.NewConnector(db, driver.Config{Region: "xian"}))
//
//	driver.Register("prod", db)
//	sqldb, _ := sql.Open("globaldb", "prod?region=dongguan&staleness=50ms")
//
// Over the network, a tcp:// DSN dials a server (package server). Each
// database/sql connection is one TCP socket, and database/sql's own pool is
// the only pool: it reuses idle connections, and before it hands one out
// again the driver probes the socket, so a connection whose server went
// away is replaced by a fresh dial instead of failing the next statement.
// maxconns bounds the sockets a connector holds open at once; a dial
// beyond it blocks until a connection closes:
//
//	sqldb, _ := sql.Open("globaldb", "tcp://127.0.0.1:7687?region=xian&maxconns=128")
//
// A connection database/sql closes is gone, not parked: the next one dials
// afresh. database/sql closes a returned connection when more are idle
// than SetMaxIdleConns allows (2 by default) or when SetConnMaxLifetime
// expires it, so a caller who wants warm sockets raises SetMaxIdleConns.
// Every round trip honours its context: a deadline or cancellation cuts a
// blocked read or write and drops the connection.
//
// Both DSN forms (and Config) carry the connection's home region and its
// replica staleness bound. `staleness=any` routes out-of-transaction
// SELECTs to asynchronous replicas at the RCP with no freshness bound; a
// duration like `staleness=50ms` bounds how stale those reads may be;
// omitting it reads shard primaries. `SET STALENESS` works per connection
// at runtime too.
//
// Every connection owns one gsql session, so prepared statements get the
// session's DDL-aware plan cache: executing a prepared statement re-parses
// nothing, and a CREATE/DROP TABLE between executions replans transparently.
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"globaldb"
	"globaldb/gsql"
	"globaldb/internal/obs"
)

func init() { sql.Register("globaldb", Driver{}) }

// Config tunes the connections a Connector produces.
type Config struct {
	// Region is the home region of the session (the computing node the
	// connection talks to). Empty selects the cluster's first region.
	Region string
	// ReplicaReads routes out-of-transaction SELECTs to asynchronous
	// replicas at the RCP with no freshness bound (SET STALENESS = ANY).
	ReplicaReads bool
	// Staleness bounds replica reads: at most this far behind the
	// primaries. A positive value implies ReplicaReads.
	Staleness time.Duration
	// MaxConns bounds how many TCP connections a NetConnector holds open
	// at once; a Connect beyond it blocks until one closes or its context
	// ends. Zero means DefaultMaxConns. Ignored in process.
	MaxConns int
}

// registry maps DSN cluster names to open DBs.
var registry sync.Map // string -> *globaldb.DB

// Register makes an open cluster reachable through sql.Open under the
// given name: sql.Open("globaldb", name+"?region=..."). Registering the
// same name again replaces the previous cluster.
func Register(name string, db *globaldb.DB) { registry.Store(name, db) }

// Unregister removes a named cluster.
func Unregister(name string) { registry.Delete(name) }

// Driver is the database/sql/driver entry point, registered as "globaldb".
type Driver struct{}

// Open connects using a DSN: "name?region=xian&staleness=50ms" where name
// was previously passed to Register.
func (d Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector parses the DSN once and returns a reusable connector. A
// "tcp://host:port?opts" DSN dials a network server, at most maxconns
// connections at once; anything else names a Registered in-process
// cluster.
func (d Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	if addr, ok := strings.CutPrefix(dsn, "tcp://"); ok {
		addr, cfg, err := parseDSN(addr)
		if err != nil {
			return nil, err
		}
		return NewNetConnector(addr, cfg), nil
	}
	name, cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	v, ok := registry.Load(name)
	if !ok {
		return nil, fmt.Errorf("globaldb driver: no cluster registered as %q (call driver.Register)", name)
	}
	return NewConnector(v.(*globaldb.DB), cfg), nil
}

// parseDSN splits "name?opts" and decodes the option query string.
func parseDSN(dsn string) (name string, cfg Config, err error) {
	name, query, _ := strings.Cut(dsn, "?")
	if name == "" {
		return "", cfg, fmt.Errorf("globaldb driver: DSN %q names no cluster", dsn)
	}
	vals, err := url.ParseQuery(query)
	if err != nil {
		return "", cfg, fmt.Errorf("globaldb driver: bad DSN options %q: %v", query, err)
	}
	for key, vv := range vals {
		v := vv[len(vv)-1]
		switch key {
		case "region":
			cfg.Region = v
		case "staleness":
			switch strings.ToLower(v) {
			case "none", "":
				// primary reads, the default
			case "any":
				cfg.ReplicaReads = true
			default:
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return "", cfg, fmt.Errorf("globaldb driver: bad staleness %q", v)
				}
				cfg.ReplicaReads = true
				cfg.Staleness = d
			}
		case "maxconns":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return "", cfg, fmt.Errorf("globaldb driver: bad maxconns %q", v)
			}
			cfg.MaxConns = n
		default:
			return "", cfg, fmt.Errorf("globaldb driver: unknown DSN option %q", key)
		}
	}
	return name, cfg, nil
}

// Connector produces connections to one cluster with a fixed Config. Use
// with sql.OpenDB.
type Connector struct {
	db  *globaldb.DB
	cfg Config
}

// NewConnector wires an open cluster to database/sql:
// sql.OpenDB(NewConnector(db, cfg)).
func NewConnector(db *globaldb.DB, cfg Config) *Connector {
	return &Connector{db: db, cfg: cfg}
}

// Connect opens one connection: a gsql session homed at the configured
// region, with the configured staleness applied.
func (c *Connector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	region := c.cfg.Region
	if region == "" {
		regions := c.db.Regions()
		if len(regions) == 0 {
			return nil, fmt.Errorf("globaldb driver: cluster has no regions")
		}
		region = regions[0]
	}
	sess, err := gsql.Connect(c.db, region)
	if err != nil {
		return nil, err
	}
	if c.cfg.ReplicaReads || c.cfg.Staleness > 0 {
		set := &gsql.SetStaleness{Any: c.cfg.Staleness <= 0, Bound: c.cfg.Staleness}
		if _, err := sess.ExecStmt(ctx, set); err != nil {
			return nil, err
		}
	}
	return &conn{sess: sess}, nil
}

// Driver returns the underlying Driver.
func (c *Connector) Driver() sqldriver.Driver { return Driver{} }

// Open is a convenience for sql.OpenDB(NewConnector(db, cfg)).
func Open(db *globaldb.DB, cfg Config) *sql.DB {
	return sql.OpenDB(NewConnector(db, cfg))
}

// DefaultMaxConns bounds a NetConnector's open connections when the DSN
// names no maxconns.
const DefaultMaxConns = 64

// TCP connection figures exported on obs.Default, summed over every
// NetConnector in the process.
var (
	poolInUse       = obs.Default.Gauge("driver_pool_in_use")
	poolWaits       = obs.Default.Counter("driver_pool_wait_total")
	poolHealthFails = obs.Default.Counter("driver_pool_health_check_failures_total")
)

var errConnectorClosed = errors.New("globaldb driver: connector is closed")

// NetConnector produces TCP connections to a network server, one socket
// per database/sql connection, at most MaxConns open at once. Use with
// sql.OpenDB; sql.DB.Close closes the connector.
type NetConnector struct {
	addr string
	cfg  Config
	// slots holds one token per open connection; a Connect that finds it
	// full waits for a netConn to Close.
	slots     chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

// NewNetConnector wires a server address ("host:port") to database/sql
// with the given session options and connection bound.
func NewNetConnector(addr string, cfg Config) *NetConnector {
	n := cfg.MaxConns
	if n <= 0 {
		n = DefaultMaxConns
	}
	return &NetConnector{addr: addr, cfg: cfg, slots: make(chan struct{}, n), closed: make(chan struct{})}
}

// Connect dials one wire connection, first waiting for a free slot when
// MaxConns connections are open. It fails once the connector is closed.
func (c *NetConnector) Connect(ctx context.Context) (sqldriver.Conn, error) {
	select {
	case c.slots <- struct{}{}:
	default:
		poolWaits.Inc()
		select {
		case c.slots <- struct{}{}:
		case <-c.closed:
			return nil, errConnectorClosed
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	select {
	case <-c.closed:
		<-c.slots
		return nil, errConnectorClosed
	default:
	}
	wc, err := dialWire(ctx, c.addr, c.cfg)
	if err != nil {
		<-c.slots
		return nil, err
	}
	poolInUse.Inc()
	return &netConn{connector: c, wc: wc}, nil
}

// release closes one connection's socket and frees its slot.
func (c *NetConnector) release(wc *wireClient) {
	wc.close()
	poolInUse.Dec()
	<-c.slots
}

// Driver returns the underlying Driver.
func (c *NetConnector) Driver() sqldriver.Driver { return Driver{} }

// Close fails every blocked and later Connect; sql.DB.Close calls it after
// closing its connections.
func (c *NetConnector) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
