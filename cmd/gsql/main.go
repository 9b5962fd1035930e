// Command gsql is an interactive SQL shell against an in-process GlobalDB
// cluster. It demonstrates the full stack the paper describes: a computing
// node parsing and planning SQL, sharded primaries with asynchronous
// geo-replication, clock-based transaction management, and read-on-replica
// queries with tunable staleness.
//
// Usage:
//
//	gsql [-topology three-city|one-region] [-region xian] [-timescale 0.05] [-staleness any|50ms]
//
// Statement boundaries are detected with the gsql lexer (a ';' inside a
// string literal does not end a statement), and buffers are executed with
// gsql.Session.ExecScript, so the REPL and the library parse identically.
// Statements end with ';'. Try:
//
//	CREATE TABLE kv (k BIGINT, v TEXT, PRIMARY KEY (k));
//	INSERT INTO kv VALUES (1, 'hello'), (2, 'world');
//	SELECT * FROM kv WHERE k = 1;
//	SET STALENESS = ANY;          -- route reads to asynchronous replicas
//	EXPLAIN SELECT * FROM kv WHERE k = 1;
//	\explain SELECT * FROM kv WHERE k = 1   -- shortcut, no ';' needed
//	SHOW TABLES; SHOW MODE; SHOW REGIONS;
//
// Prepared statements are available through shell meta-commands:
//
//	\prepare p1 SELECT * FROM kv WHERE k = ?
//	\exec p1 1
//	\exec p1 2
//
// \exec binds the space-separated arguments (integers, floats, 'quoted
// strings', true/false, NULL) to the statement's placeholders and executes
// the cached plan — no reparse, no replan.
//
// EXPLAIN prints the planned DN-partial / CN-final split: which filters,
// projections and partial aggregates run on the data nodes versus the
// computing node. After each SELECT — ad-hoc or prepared — the shell
// reports the per-layer scan counters (rows read at storage, rows dropped
// at the data nodes, rows shipped over the WAN), so pushdown wins are
// visible interactively.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"globaldb"
	"globaldb/driver"
	"globaldb/gsql"
	"globaldb/internal/obs"
	"globaldb/internal/stats"
)

// shellStmt is a prepared statement as the REPL needs it. *gsql.Stmt
// (in-process) and *driver.ClientStmt (network) both satisfy it.
type shellStmt interface {
	NumParams() int
	Exec(ctx context.Context, args ...any) (*gsql.Result, error)
	Close() error
}

// shellBackend is the session surface the REPL runs against: script
// execution and prepared statements, both answering gsql.Result so the
// result tables and scan-counter lines print identically whether the
// cluster is in this process or across a socket.
type shellBackend interface {
	ExecScript(ctx context.Context, sql string) (*gsql.Result, error)
	Prepare(ctx context.Context, sql string) (shellStmt, error)
	// SetTrace toggles per-statement span tracing; it reports false when
	// the backend cannot trace (traces do not cross the wire protocol).
	SetTrace(on bool) bool
}

// localBackend adapts an in-process gsql session.
type localBackend struct{ sess *gsql.Session }

func (b localBackend) ExecScript(ctx context.Context, sql string) (*gsql.Result, error) {
	return b.sess.ExecScript(ctx, sql)
}
func (b localBackend) Prepare(ctx context.Context, sql string) (shellStmt, error) {
	return b.sess.Prepare(ctx, sql)
}
func (b localBackend) SetTrace(on bool) bool {
	b.sess.SetTrace(on)
	return true
}

// netBackend adapts a wire-protocol client session.
type netBackend struct{ sess *driver.ClientSession }

func (b netBackend) ExecScript(ctx context.Context, sql string) (*gsql.Result, error) {
	return b.sess.ExecScript(ctx, sql)
}
func (b netBackend) Prepare(ctx context.Context, sql string) (shellStmt, error) {
	return b.sess.Prepare(ctx, sql)
}
func (b netBackend) SetTrace(bool) bool { return false }

func main() {
	topology := flag.String("topology", "three-city", "cluster topology: three-city or one-region")
	region := flag.String("region", "", "home region for the session (default: first region)")
	timescale := flag.Float64("timescale", 0.05, "network time scale (1.0 = real WAN latencies)")
	rtt := flag.Duration("rtt", 10*time.Millisecond, "injected RTT for the one-region topology")
	staleness := flag.String("staleness", "", "session staleness: none (primary reads), any, or a duration like 50ms")
	connect := flag.String("connect", "", "connect to a globaldb-server at host:port instead of an in-process cluster")
	flag.Parse()

	ctx := context.Background()
	var backend shellBackend
	var home string

	if *connect != "" {
		cs, err := driver.Dial(ctx, *connect, driver.Config{Region: *region})
		if err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		defer cs.Close()
		backend, home = netBackend{cs}, cs.Region()
		fmt.Printf("GlobalDB SQL shell — connected to %s, session homed in %s (mode %s)\n",
			*connect, home, cs.Mode())
	} else {
		var cfg globaldb.Config
		switch *topology {
		case "three-city":
			cfg = globaldb.ThreeCity()
		case "one-region":
			cfg = globaldb.OneRegion(*rtt)
		default:
			fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topology)
			os.Exit(2)
		}
		cfg.TimeScale = *timescale

		db, err := globaldb.Open(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "open:", err)
			os.Exit(1)
		}
		defer db.Close()

		home = *region
		if home == "" {
			home = db.Regions()[0]
		}
		sess, err := gsql.Connect(db, home)
		if err != nil {
			fmt.Fprintln(os.Stderr, "connect:", err)
			os.Exit(1)
		}
		backend = localBackend{sess}
		fmt.Printf("GlobalDB SQL shell — %s topology, session homed in %s (mode %v)\n",
			*topology, home, db.Mode())
	}

	if *staleness != "" && *staleness != "none" {
		if _, err := backend.ExecScript(ctx, fmt.Sprintf("SET STALENESS = '%s';", *staleness)); err != nil {
			// ANY is a keyword value, not a duration string.
			if _, err2 := backend.ExecScript(ctx, "SET STALENESS = "+*staleness+";"); err2 != nil {
				fmt.Fprintln(os.Stderr, "staleness:", err)
				os.Exit(2)
			}
		}
	}

	fmt.Println(`Statements end with ';'. Type \q to quit, \explain <select> to show the DN/CN plan split,` + "\n" +
		`\prepare <name> <stmt with ? placeholders> then \exec <name> <args...> for prepared statements,` + "\n" +
		`\trace to toggle per-statement span tracing, EXPLAIN ANALYZE <select> for a one-shot trace.`)

	runREPL(ctx, backend, home, os.Stdin, os.Stdout)
	fmt.Println()
}

// reportResult prints a statement's result table plus, for reads, where it
// was served, and for reads and UPDATE/DELETE row searches the per-layer
// scan counters. It is shared by the ad-hoc and prepared execution paths,
// so `\exec` reports the same storage/DN-filtered/WAN numbers an ad-hoc
// SELECT does.
func reportResult(w io.Writer, res *gsql.Result, elapsed time.Duration, commits stats.CommitPathSnapshot) {
	fmt.Fprint(w, gsql.FormatTable(res))
	// Write statements report their slice of the commit path: how many
	// transactions the statement committed and what they cost at the WAL
	// (fsyncs after group coalescing) and in 2PC (background resolutions).
	// The numbers are an interval delta on the process-wide registry, so a
	// statement that committed nothing prints nothing.
	if commits.Commits > 0 {
		fmt.Fprintf(w, "commit: n=%d (one-message=%d), wal fsyncs=%d (%.2f/commit, %d saved), async-2pc=%d\n",
			commits.Commits, commits.OneMessageCommits, commits.Fsyncs, commits.FsyncsPerCommit(),
			commits.FsyncsSaved, commits.AsyncResolves)
	}
	if len(res.Columns) > 0 {
		where := "primaries"
		if res.OnReplicas {
			where = "replicas (RCP snapshot)"
		}
		fmt.Fprintf(w, "read from %s — %v\n", where, elapsed.Round(time.Microsecond))
		// Joins name the physical strategy the engine picked (AUTO resolves
		// per statement) and, for pushed lookup joins, how many inner rows the
		// data nodes read locally instead of shipping.
		if res.JoinStrategy != "" {
			fmt.Fprintf(w, "join: strategy=%s", res.JoinStrategy)
			if res.Scan.LookupRows > 0 {
				fmt.Fprintf(w, ", dn-lookup rows=%d", res.Scan.LookupRows)
			}
			fmt.Fprintln(w)
		}
	}
	// The two counter lines share one gate so they always appear as a
	// pair: the per-layer row counters, then WAN latency observability —
	// page RPCs issued, pages already prefetched when the executor asked
	// for them (round trips hidden behind consumption) with the hit rate,
	// and the total time actually spent blocked on the network as a share
	// of the statement's wall time. An empty scan (zero storage rows)
	// still pays at least one page RPC and reports it. An UPDATE/DELETE
	// reports its row search here too; a point get scans nothing.
	if sc := res.Scan; sc.StorageRows > 0 || sc.PagesFetched > 0 {
		fmt.Fprintf(w, "scan: storage=%d rows, filtered at DN=%d, shipped over WAN=%d\n",
			sc.StorageRows, sc.DNFilteredRows, sc.WANRows)
		hitRate := 0.0
		if sc.PagesFetched > 0 {
			hitRate = 100 * float64(sc.PrefetchHits) / float64(sc.PagesFetched)
		}
		waitPct := 0.0
		if elapsed > 0 {
			waitPct = 100 * float64(sc.WANWait) / float64(elapsed)
			if waitPct > 100 {
				waitPct = 100
			}
		}
		fmt.Fprintf(w, "wan: pages=%d, prefetch-hits=%d (%.0f%% hit rate), wait=%v (%.0f%% of wall)\n",
			sc.PagesFetched, sc.PrefetchHits, hitRate, sc.WANWait.Round(time.Microsecond), waitPct)
	}
	printTrace(w, res) // on a traced write, the commit span says which path ran
}

// printTrace prints the span tree `\trace` attached to a result, if any.
func printTrace(w io.Writer, res *gsql.Result) {
	if len(res.Trace) == 0 {
		return
	}
	fmt.Fprintln(w, "trace:")
	for _, line := range res.Trace {
		fmt.Fprintln(w, "  "+line)
	}
}

// splitExecArgs tokenizes a `\exec` argument string on whitespace while
// keeping 'quoted strings' (with ” as an embedded quote) together, so a
// quoted value may contain spaces.
func splitExecArgs(s string) []string {
	var out []string
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		if s[i] == '\'' {
			i++
			for i < len(s) {
				if s[i] == '\'' {
					if i+1 < len(s) && s[i+1] == '\'' {
						i += 2 // escaped quote
						continue
					}
					i++
					break
				}
				i++
			}
		} else {
			for i < len(s) && s[i] != ' ' && s[i] != '\t' {
				i++
			}
		}
		out = append(out, s[start:i])
	}
	return out
}

// parseExecArgs converts `\exec` shell arguments to SQL parameter values:
// integers, floats, 'quoted strings', true/false, NULL, and bare words as
// strings.
func parseExecArgs(args []string) []any {
	out := make([]any, 0, len(args))
	for _, a := range args {
		switch {
		case strings.EqualFold(a, "null"):
			out = append(out, nil)
		case strings.EqualFold(a, "true"):
			out = append(out, true)
		case strings.EqualFold(a, "false"):
			out = append(out, false)
		case len(a) >= 2 && a[0] == '\'' && a[len(a)-1] == '\'':
			out = append(out, strings.ReplaceAll(a[1:len(a)-1], "''", "'"))
		default:
			if n, err := strconv.ParseInt(a, 10, 64); err == nil {
				out = append(out, n)
			} else if f, err := strconv.ParseFloat(a, 64); err == nil {
				out = append(out, f)
			} else {
				out = append(out, a)
			}
		}
	}
	return out
}

// runREPL drives the shell loop over the given streams — extracted from
// main so tests can script a session and assert on its output.
func runREPL(ctx context.Context, backend shellBackend, home string, in io.Reader, out io.Writer) {
	prepared := map[string]shellStmt{}
	tracing := false

	runScript := func(script string) {
		before := stats.ReadCommitPath(obs.Default)
		start := time.Now()
		res, err := backend.ExecScript(ctx, script)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		reportResult(out, res, time.Since(start), stats.ReadCommitPath(obs.Default).Sub(before))
	}

	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprintf(out, "%s> ", home)
		} else {
			fmt.Fprintf(out, "%s. ", strings.Repeat(" ", len(home)-1))
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == `\q` || trimmed == "quit" || trimmed == "exit") {
			break
		}
		// \trace toggles per-statement span tracing (local sessions only —
		// traces do not cross the wire protocol).
		if buf.Len() == 0 && trimmed == `\trace` {
			if !backend.SetTrace(!tracing) {
				fmt.Fprintln(out, "trace: not supported over a network connection")
			} else {
				tracing = !tracing
				if tracing {
					fmt.Fprintln(out, "trace: on")
				} else {
					fmt.Fprintln(out, "trace: off")
				}
			}
			prompt()
			continue
		}
		// \explain <stmt> runs immediately as EXPLAIN, no terminator needed.
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\explain`) {
			q := strings.TrimSpace(strings.TrimPrefix(trimmed, `\explain`))
			if q == "" {
				fmt.Fprintln(out, `usage: \explain SELECT ...`)
			} else {
				runScript("EXPLAIN " + strings.TrimSuffix(q, ";") + ";")
			}
			prompt()
			continue
		}
		// \prepare <name> <stmt> caches a parsed-and-planned statement.
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\prepare`) {
			rest := strings.TrimSpace(strings.TrimPrefix(trimmed, `\prepare`))
			name, sql, ok := strings.Cut(rest, " ")
			if !ok || name == "" || strings.TrimSpace(sql) == "" {
				fmt.Fprintln(out, `usage: \prepare <name> <statement with ? or $n placeholders>`)
			} else if st, err := backend.Prepare(ctx, strings.TrimSuffix(strings.TrimSpace(sql), ";")); err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				prepared[name] = st
				fmt.Fprintf(out, "prepared %s (%d parameters)\n", name, st.NumParams())
			}
			prompt()
			continue
		}
		// \exec <name> <args...> runs a prepared statement with bound
		// parameters; results and scan counters print exactly as for
		// ad-hoc statements.
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\exec`) {
			fields := splitExecArgs(strings.TrimSpace(strings.TrimPrefix(trimmed, `\exec`)))
			if len(fields) == 0 {
				fmt.Fprintln(out, `usage: \exec <name> <args...>`)
				prompt()
				continue
			}
			st, ok := prepared[fields[0]]
			if !ok {
				fmt.Fprintf(out, "error: no prepared statement %q\n", fields[0])
				prompt()
				continue
			}
			before := stats.ReadCommitPath(obs.Default)
			start := time.Now()
			res, err := st.Exec(ctx, parseExecArgs(fields[1:])...)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
			} else {
				reportResult(out, res, time.Since(start), stats.ReadCommitPath(obs.Default).Sub(before))
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if gsql.StatementsComplete(buf.String()) {
			script := buf.String()
			buf.Reset()
			runScript(script)
		}
		prompt()
	}
}
