package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"globaldb"
	"globaldb/driver"
	"globaldb/gsql"
	"globaldb/server"
)

// openShellCluster builds the fast one-region cluster the shell tests use.
func openShellCluster(t *testing.T) *globaldb.DB {
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

// runShell scripts one REPL session against an in-process cluster and
// returns everything the shell printed.
func runShell(t *testing.T, script string) string {
	t.Helper()
	db := openShellCluster(t)
	sess, err := gsql.Connect(db, db.Regions()[0])
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	runREPL(context.Background(), localBackend{sess}, "test", strings.NewReader(script), &out)
	return out.String()
}

// TestShellPreparedScanCounters pins the shell's scan-counter reporting on
// the prepared-statement path: a filtered scan executed via \prepare/\exec
// must print the same storage/DN-filtered/WAN line an ad-hoc SELECT does.
func TestShellPreparedScanCounters(t *testing.T) {
	script := `CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k;
INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
SELECT * FROM kv WHERE v >= 30;
\prepare getbig SELECT * FROM kv WHERE v >= ?
\exec getbig 30
\exec getbig 50
\exec getbig 'nope'
\q
`
	out := runShell(t, script)

	scanLines, wanLines := 0, 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "scan: storage=") {
			scanLines++
			if !strings.Contains(line, "filtered at DN=") || !strings.Contains(line, "shipped over WAN=") {
				t.Fatalf("malformed scan counter line: %q", line)
			}
		}
		if strings.HasPrefix(line, "wan: pages=") {
			wanLines++
			if !strings.Contains(line, "prefetch-hits=") || !strings.Contains(line, "wait=") {
				t.Fatalf("malformed wan observability line: %q", line)
			}
			// The line also attributes the WAN cost: prefetch hit rate and
			// blocked-on-network time as a share of statement wall time.
			if !strings.Contains(line, "% hit rate)") || !strings.Contains(line, "% of wall)") {
				t.Fatalf("wan line missing hit-rate / wall-share attribution: %q", line)
			}
		}
	}
	// One ad-hoc SELECT plus two successful \exec runs (each reads 5
	// storage rows); the type-error execution reports an error instead.
	if scanLines != 3 {
		t.Fatalf("scan counter lines = %d, want 3 (1 ad-hoc + 2 prepared)\noutput:\n%s", scanLines, out)
	}
	// Every scan line is accompanied by the WAN observability line (pages
	// fetched / prefetch hits / cumulative WAN wait).
	if wanLines != scanLines {
		t.Fatalf("wan observability lines = %d, want %d\noutput:\n%s", wanLines, scanLines, out)
	}
	if !strings.Contains(out, "prepared getbig (1 parameters)") {
		t.Fatalf("missing prepare confirmation:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Fatalf("expected a type error from the string-bound execution:\n%s", out)
	}
	// The two successful prepared runs saw 5 storage rows each and shipped
	// 3 and 1 rows respectively.
	if !strings.Contains(out, "scan: storage=5 rows, filtered at DN=2, shipped over WAN=3") {
		t.Fatalf("missing counters for \\exec getbig 30:\n%s", out)
	}
	if !strings.Contains(out, "scan: storage=5 rows, filtered at DN=4, shipped over WAN=1") {
		t.Fatalf("missing counters for \\exec getbig 50:\n%s", out)
	}
}

// TestShellJoinStrategyLine pins the join reporting: a two-table query
// prints the physical strategy the engine picked, pushed lookup joins add
// the DN-side inner read count, and single-table reads print no join line.
func TestShellJoinStrategyLine(t *testing.T) {
	script := `CREATE TABLE ord (w_id BIGINT, o_id BIGINT, amt BIGINT, PRIMARY KEY (w_id, o_id)) SHARD BY w_id;
CREATE TABLE wh (w_id BIGINT, name TEXT, PRIMARY KEY (w_id)) SHARD BY w_id;
INSERT INTO wh VALUES (1, 'a'), (2, 'b');
INSERT INTO ord VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30);
SELECT o.o_id, w.name FROM ord o JOIN wh w ON w.w_id = o.w_id;
SET JOIN = NESTLOOP;
SELECT o.o_id, w.name FROM ord o JOIN wh w ON w.w_id = o.w_id;
SELECT * FROM ord WHERE w_id = 1;
\q
`
	out := runShell(t, script)
	if !strings.Contains(out, "join: strategy=lookup-pushdown, dn-lookup rows=") {
		t.Fatalf("missing pushed-lookup join line:\n%s", out)
	}
	if !strings.Contains(out, "join: strategy=nested-loop\n") {
		t.Fatalf("missing nested-loop join line:\n%s", out)
	}
	// Exactly the two join queries report a strategy; the single-table
	// SELECT must not.
	if n := strings.Count(out, "join: strategy="); n != 2 {
		t.Fatalf("join strategy lines = %d, want 2:\n%s", n, out)
	}
}

// TestShellCommitPathLine pins the write-path reporting: a committing
// statement prints a commit: line with the interval's WAL fsync cost and the
// one-message share, and a pure read does not; under \trace a write prints
// its span tree, whose commit span names the path that ran.
func TestShellCommitPathLine(t *testing.T) {
	script := `CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k;
INSERT INTO kv VALUES (1, 10), (2, 20);
\trace
UPDATE kv SET v = 11 WHERE k = 1;
\trace
SELECT * FROM kv WHERE v >= 10;
\q
`
	out := runShell(t, script)
	if !strings.Contains(out, "commit: n=1 (one-message=1)") || !strings.Contains(out, "path=one-message floor-bump=") {
		t.Fatalf("single-row UPDATE did not report the one-message commit path:\n%s", out)
	}
	var commitLines, afterSelect int
	sawSelect := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "scan: storage=") {
			sawSelect = true
		}
		if strings.HasPrefix(line, "commit: n=") {
			commitLines++
			if sawSelect {
				afterSelect++
			}
			if !strings.Contains(line, "wal fsyncs=") || !strings.Contains(line, "/commit") {
				t.Fatalf("malformed commit line: %q", line)
			}
		}
	}
	if commitLines == 0 {
		t.Fatalf("no commit: line after the INSERT:\n%s", out)
	}
	if afterSelect != 0 {
		t.Fatalf("read-only SELECT printed a commit line:\n%s", out)
	}
}

// TestShellOverNetwork runs the REPL against a wire server on a real
// socket — the `gsql -connect host:port` path — and requires ad-hoc
// statements, prepared statements, and the scan-counter reporting to
// round-trip exactly as they do in process.
func TestShellOverNetwork(t *testing.T) {
	db := openShellCluster(t)
	srv := server.New(db, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	ctx := context.Background()
	cs, err := driver.Dial(ctx, srv.Addr().String(), driver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if cs.Region() != db.Regions()[0] {
		t.Fatalf("session homed in %q, want %q", cs.Region(), db.Regions()[0])
	}

	// Range predicates, not point gets: scans run the paged pipeline and
	// so carry the per-layer counters the shell reports.
	script := `CREATE TABLE kv (k BIGINT, v TEXT, PRIMARY KEY (k)) SHARD BY k;
INSERT INTO kv VALUES (1, 'hello'), (2, 'world');
SELECT v FROM kv WHERE k >= 2;
\prepare get SELECT v FROM kv WHERE k < ?
\exec get 2
UPDATE kv SET v = 'bye' WHERE v = 'hello';
\q
`
	var out strings.Builder
	runREPL(ctx, netBackend{cs}, cs.Region(), strings.NewReader(script), &out)
	got := out.String()

	for _, want := range []string{
		"world", // ad-hoc SELECT round-tripped the socket
		"prepared get (1 parameters)",
		"hello",          // prepared execution bound its arg remotely
		"scan: storage=", // Done-frame counters feed the report line
		// An UPDATE's row search reports its counters through the Done
		// frame too: two rows read, one dropped by the pushed filter.
		"UPDATE 1\n", "scan: storage=2 rows, filtered at DN=1, shipped over WAN=1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("network shell output missing %q:\n%s", want, got)
		}
	}
}

// TestShellTrace toggles \trace on a local session and requires the next
// statement to print a span tree, then verifies toggling off stops it.
func TestShellTrace(t *testing.T) {
	script := `CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY (k)) SHARD BY k;
INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30);
\trace
SELECT * FROM kv WHERE v >= 20;
\trace
SELECT * FROM kv WHERE v >= 20;
\q
`
	out := runShell(t, script)
	if !strings.Contains(out, "trace: on") || !strings.Contains(out, "trace: off") {
		t.Fatalf("missing \\trace toggle confirmations:\n%s", out)
	}
	traced := strings.Count(out, "trace:\n")
	if traced != 1 {
		t.Fatalf("span trees printed = %d, want exactly 1 (second SELECT ran untraced)\noutput:\n%s", traced, out)
	}
	for _, span := range []string{"select", "plan", "execute", "scan-page"} {
		if !strings.Contains(out, span) {
			t.Fatalf("trace output missing span %q:\n%s", span, out)
		}
	}
}

// TestShellTraceOverNetwork pins that \trace against a wire-protocol
// backend reports itself unsupported instead of silently doing nothing.
func TestShellTraceOverNetwork(t *testing.T) {
	db := openShellCluster(t)
	srv := server.New(db, server.Options{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	ctx := context.Background()
	cs, err := driver.Dial(ctx, srv.Addr().String(), driver.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	var out strings.Builder
	runREPL(ctx, netBackend{cs}, cs.Region(), strings.NewReader("\\trace\n\\q\n"), &out)
	if !strings.Contains(out.String(), "not supported over a network connection") {
		t.Fatalf("expected unsupported notice for \\trace over the wire:\n%s", out.String())
	}
}

// TestShellPreparedUsageErrors covers the meta-command error paths.
func TestShellPreparedUsageErrors(t *testing.T) {
	out := runShell(t, "\\prepare\n\\exec\n\\exec nosuch 1\n\\q\n")
	for _, want := range []string{
		`usage: \prepare <name>`,
		`usage: \exec <name>`,
		`no prepared statement "nosuch"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestParseExecArgs covers the shell's argument tokenizing and
// argument-to-value conversion, including quoted strings with spaces and
// embedded quotes.
func TestParseExecArgs(t *testing.T) {
	got := parseExecArgs(splitExecArgs("42 -7  2.5 'it''s' true NULL plain 'two words'"))
	want := []any{int64(42), int64(-7), 2.5, "it's", true, nil, "plain", "two words"}
	if len(got) != len(want) {
		t.Fatalf("got %#v, want %d values", got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arg %d = %#v, want %#v", i, got[i], want[i])
		}
	}
}

// TestShellPreparedQuotedArg drives a quoted, space-containing string
// parameter through \prepare/\exec end to end.
func TestShellPreparedQuotedArg(t *testing.T) {
	script := `CREATE TABLE notes (k BIGINT, txt TEXT, PRIMARY KEY (k)) SHARD BY k;
INSERT INTO notes VALUES (1, 'two words'), (2, 'other');
\prepare find SELECT k FROM notes WHERE txt = ?
\exec find 'two words'
\q
`
	out := runShell(t, script)
	if !strings.Contains(out, "(1 rows)") {
		t.Fatalf("quoted-arg execution did not match one row:\n%s", out)
	}
}
