package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"globaldb/internal/obs"
	"globaldb/server/wire"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerPanicCounterBalance pins the teardown ordering audited in
// conn.go: a statement that panics mid-execution must still be counted,
// still observe a latency sample, and leave the in-flight gauge and
// active-connection gauge balanced once the connection is torn down.
func TestServerPanicCounterBalance(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{})

	testHookQuery = func(sql string) {
		if strings.Contains(sql, "PANIC_MARKER") {
			panic("injected executor bug")
		}
	}
	defer func() { testHookQuery = nil }()

	c := dialTest(t, srv)
	c.hello("", "")
	c.send(&wire.Query{SQL: "SELECT PANIC_MARKER"})
	if e, ok := c.recv().(*wire.Error); !ok || e.Code != "panic" {
		t.Fatalf("panicking statement answered %#v, want panic Error", e)
	}
	c.expectClosed()

	// The connection teardown is asynchronous to the Error frame.
	waitFor(t, "connection teardown", func() bool { return srv.Stats().Active == 0 })

	st := srv.Stats()
	if st.Statements != 1 {
		t.Fatalf("Statements = %d, want 1 (panicked statement must still count)", st.Statements)
	}
	if st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	if v := srv.Metrics().Gauge("server_statements_in_flight").Value(); v != 0 {
		t.Fatalf("in-flight gauge = %d after panic, want 0", v)
	}
	hists := srv.Metrics().Histograms()
	sel := hists[obs.LabeledName("server_statement_latency_seconds", "type", "select")]
	if sel.Count != 1 {
		t.Fatalf("select latency histogram count = %d, want 1 (panic path must observe)", sel.Count)
	}
}

// TestServerSlowQueryLog pins that the slow-query log fires only for
// statements over the configured threshold.
func TestServerSlowQueryLog(t *testing.T) {
	db := newTestCluster(t)

	var mu sync.Mutex
	var lines []string
	record := func(line string) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, line)
	}
	logged := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lines...)
	}

	// A threshold no real statement reaches: nothing may fire.
	quiet := startTestServer(t, db, Options{SlowQueryThreshold: time.Hour, SlowQueryLog: record})
	c := dialTest(t, quiet)
	c.hello("", "")
	_, _, fin := c.query("CREATE TABLE slow_kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k")
	c.mustDone(fin)
	_, _, fin = c.query("INSERT INTO slow_kv VALUES (1, 10), (2, 20), (3, 30)")
	c.mustDone(fin)
	_, _, fin = c.query("SELECT * FROM slow_kv WHERE v >= 20")
	c.mustDone(fin)
	if got := logged(); len(got) != 0 {
		t.Fatalf("slow-query log fired below threshold: %q", got)
	}

	// A threshold every statement exceeds: the next statement must fire,
	// and the line must identify the statement and the threshold.
	eager := startTestServer(t, db, Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: record})
	c2 := dialTest(t, eager)
	c2.hello("", "")
	_, _, fin = c2.query("SELECT * FROM slow_kv WHERE v >= 20")
	c2.mustDone(fin)
	got := logged()
	if len(got) == 0 {
		t.Fatal("slow-query log did not fire above threshold")
	}
	if !strings.Contains(got[0], "slow query") || !strings.Contains(got[0], "SELECT * FROM slow_kv") {
		t.Fatalf("slow-query line %q missing marker or statement text", got[0])
	}
}

// TestServerStatsAfterDone pins when a statement is accounted: before its
// Done frame leaves the server. The moment one client has read Done, a Stats
// frame on another connection must count the statement, carry its latency
// sample and show nothing in flight, and the slow-query line must already be
// written — accounting from a defer that ran after the flush lost that race.
func TestServerStatsAfterDone(t *testing.T) {
	db := newTestCluster(t)
	var mu sync.Mutex
	var lines []string
	srv := startTestServer(t, db, Options{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: func(line string) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, line)
	}})
	c := dialTest(t, srv)
	c.hello("", "")
	admin := dialTest(t, srv)
	admin.hello("", "")
	_, _, fin := c.query("CREATE TABLE sad_kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k")
	c.mustDone(fin)

	for i := 1; i <= 20; i++ {
		_, _, fin = c.query("SELECT * FROM sad_kv WHERE v >= 0")
		c.mustDone(fin)
		admin.send(&wire.Stats{})
		st, ok := admin.recv().(*wire.StatsResult)
		if !ok {
			t.Fatal("Stats did not answer a StatsResult")
		}
		if st.Statements != int64(i)+1 || st.InFlight != 0 {
			t.Fatalf("after Done of select %d: Statements = %d, InFlight = %d, want %d and 0", i, st.Statements, st.InFlight, i+1)
		}
		var selects int64
		for _, l := range st.Latencies {
			if l.Type == "select" {
				selects = l.Count
			}
		}
		if selects != int64(i) {
			t.Fatalf("after Done of select %d: %d select latency samples", i, selects)
		}
		mu.Lock()
		logged := len(lines)
		mu.Unlock()
		if logged != i+1 {
			t.Fatalf("after Done of select %d: %d slow-query lines, want %d", i, logged, i+1)
		}
	}
}

// TestServerStatsFrame round-trips the Stats admin frame over a real
// socket: counters, the in-flight gauge, and per-statement-type latency
// quantiles must reflect the statements this connection just ran.
func TestServerStatsFrame(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{})
	c := dialTest(t, srv)
	c.hello("", "")

	_, _, fin := c.query("CREATE TABLE st_kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k")
	c.mustDone(fin)
	_, _, fin = c.query("INSERT INTO st_kv VALUES (1, 10), (2, 20)")
	c.mustDone(fin)
	_, _, fin = c.query("SELECT * FROM st_kv WHERE v >= 10")
	c.mustDone(fin)

	c.send(&wire.Stats{})
	m := c.recv()
	st, ok := m.(*wire.StatsResult)
	if !ok {
		t.Fatalf("Stats answered %#v, want StatsResult", m)
	}
	if st.Accepted < 1 || st.Active != 1 {
		t.Fatalf("connection counters: accepted=%d active=%d, want >=1 and 1", st.Accepted, st.Active)
	}
	if st.Statements != 3 {
		t.Fatalf("Statements = %d, want 3", st.Statements)
	}
	// The Stats frame itself is not a statement and must not be in flight.
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d, want 0", st.InFlight)
	}
	byType := map[string]wire.StmtLatency{}
	for _, l := range st.Latencies {
		byType[l.Type] = l
	}
	for _, typ := range []string{"create", "insert", "select"} {
		l, found := byType[typ]
		if !found || l.Count != 1 {
			t.Fatalf("latency for %q = %+v, want count 1 (have %v)", typ, l, st.Latencies)
		}
		if l.SumNanos <= 0 || l.P50Nanos <= 0 || l.P99Nanos < l.P50Nanos {
			t.Fatalf("degenerate latency sample for %q: %+v", typ, l)
		}
	}
}

// TestMetricsEndpointUnderLoad scrapes the Prometheus endpoint while
// statements are executing and requires the exposition to carry the
// per-type latency summaries, the in-flight gauge, and the process-wide
// scan counters — the acceptance check for the -metrics listener.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	db := newTestCluster(t)
	srv := startTestServer(t, db, Options{})
	ep := httptest.NewServer(obs.MetricsHandler(srv.Metrics(), obs.Default))
	defer ep.Close()

	seed := dialTest(t, srv)
	seed.hello("", "")
	_, _, fin := seed.query("CREATE TABLE m_kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k")
	seed.mustDone(fin)
	_, _, fin = seed.query("INSERT INTO m_kv VALUES (1, 10), (2, 20), (3, 30), (4, 40)")
	seed.mustDone(fin)

	// Keep several connections querying while we scrape.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		c := dialTest(t, srv)
		c.hello("", "")
		wg.Add(1)
		go func(c *testClient) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, fin := c.query("SELECT * FROM m_kv WHERE v >= 20")
				if _, ok := fin.(*wire.Done); !ok {
					return
				}
			}
		}(c)
	}

	resp, err := http.Get(ep.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	text := string(body)
	for _, want := range []string{
		`# TYPE server_statement_latency_seconds summary`,
		`server_statement_latency_seconds{type="select",quantile="0.5"}`,
		`server_statement_latency_seconds_count{type="select"}`,
		`server_statements_in_flight`,
		`server_connections_active`,
		`globaldb_scan_storage_rows_total`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}
