// Command globalctl is an interactive shell over an in-process GlobalDB
// cluster: a quick way to poke at geo-distributed transactions, replica
// reads, and live mode transitions.
//
// Commands:
//
//	put <region> <id> <value>      write a row via the region's CN
//	get <region> <id>              transactional read (primary)
//	rget <region> <id>             read-on-replica at the RCP
//	scan <region> <prefix-id>      scan rows by id
//	mode                           show the transaction management mode
//	togclock | togtm               live transition
//	rcp                            show the replica consistency point
//	stats                          per-CN counters, commit path (WAL/2PC/repl), RCP lag and replica replay lag, GC watermark and retained redo
//	stats <host:port>              live snapshot from a globaldb-server
//	quit
package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"globaldb"
	"globaldb/driver"
	"globaldb/internal/obs"
	"globaldb/internal/stats"
)

const tableName = "kv"

func main() {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.1
	db, err := globaldb.Open(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "globalctl:", err)
		os.Exit(1)
	}
	defer db.Close()

	ctx := context.Background()
	schema := &globaldb.Schema{
		Name: tableName,
		Columns: []globaldb.Column{
			{Name: "id", Kind: globaldb.Int64},
			{Name: "value", Kind: globaldb.String},
		},
		PK: []int{0},
	}
	if err := db.CreateTable(ctx, schema); err != nil {
		fmt.Fprintln(os.Stderr, "globalctl:", err)
		os.Exit(1)
	}

	fmt.Printf("GlobalDB three-city cluster up (regions: %v). Type 'help'.\n", db.Regions())
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("globaldb> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := execute(ctx, db, fields); err != nil {
			if err == errQuit {
				return
			}
			fmt.Println("error:", err)
		}
	}
}

var errQuit = fmt.Errorf("quit")

func execute(ctx context.Context, db *globaldb.DB, fields []string) error {
	switch fields[0] {
	case "help":
		fmt.Println("put <region> <id> <value> | get <region> <id> | rget <region> <id> |",
			"scan <region> <id> | mode | togclock | togtm | rcp | stats [host:port] |",
			"placement | advise | move <shard> <region> | quit")
	case "quit", "exit":
		return errQuit
	case "mode":
		fmt.Println("mode:", db.Mode())
	case "togclock":
		if err := db.TransitionToGClock(ctx); err != nil {
			return err
		}
		fmt.Println("transitioned to GClock (zero downtime)")
	case "togtm":
		if err := db.TransitionToGTM(ctx); err != nil {
			return err
		}
		fmt.Println("transitioned to GTM (zero downtime)")
	case "rcp":
		fmt.Println("RCP:", db.Cluster().Collector.RCP())
	case "placement":
		for s := 0; s < db.Cluster().Shards(); s++ {
			fmt.Printf("shard %d primary in %s\n", s, db.Cluster().Primaries()[s].Region())
		}
	case "advise":
		moves := db.AdvisePlacement(globaldb.DefaultPlacementConfig())
		if len(moves) == 0 {
			fmt.Println("no moves advised (traffic is balanced or below threshold)")
		}
		for _, m := range moves {
			fmt.Println(" ", m)
		}
	case "move":
		if len(fields) < 3 {
			return fmt.Errorf("usage: move <shard> <region>")
		}
		shard, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("bad shard %q", fields[1])
		}
		if err := db.MovePrimary(ctx, shard, fields[2]); err != nil {
			return err
		}
		fmt.Printf("shard %d primary now in %s\n", shard, fields[2])
	case "stats":
		// With an address, ask a running globaldb-server for its live
		// counters and statement latency quantiles over the wire; bare
		// `stats` prints this process's per-CN counters.
		if len(fields) >= 2 {
			return remoteStats(ctx, fields[1])
		}
		for _, cn := range db.Cluster().CNs() {
			fmt.Printf("%-16s %+v\n", cn.Name(), cn.Stats())
		}
		fmt.Println("commit path:")
		for _, line := range stats.ReadCommitPath(obs.Default).Format() {
			fmt.Println(" ", line)
		}
		fmt.Println("replica reads:")
		for _, line := range db.Cluster().Collector.FormatStats() {
			fmt.Println(" ", line)
		}
		fmt.Println("gc:")
		for _, line := range db.Cluster().FormatGCStats() {
			fmt.Println(" ", line)
		}
	case "put":
		if len(fields) < 4 {
			return fmt.Errorf("usage: put <region> <id> <value>")
		}
		sess, id, err := sessAndID(db, fields)
		if err != nil {
			return err
		}
		tx, err := sess.Begin(ctx)
		if err != nil {
			return err
		}
		if err := tx.Insert(ctx, tableName, globaldb.Row{id, strings.Join(fields[3:], " ")}); err != nil {
			tx.Abort(ctx)
			return err
		}
		if err := tx.Commit(ctx); err != nil {
			return err
		}
		fmt.Printf("committed at %v\n", tx.Snapshot())
	case "get", "rget":
		if len(fields) != 3 {
			return fmt.Errorf("usage: %s <region> <id>", fields[0])
		}
		sess, id, err := sessAndID(db, fields)
		if err != nil {
			return err
		}
		if fields[0] == "rget" {
			q, err := sess.ReadOnly(ctx, globaldb.AnyStaleness, tableName)
			if err != nil {
				return err
			}
			row, found, err := q.Get(ctx, tableName, []any{id})
			if err != nil {
				return err
			}
			fmt.Printf("replica=%v snapshot=%v found=%v row=%v\n", q.OnReplicas(), q.Snapshot(), found, row)
			return nil
		}
		tx, err := sess.Begin(ctx)
		if err != nil {
			return err
		}
		row, found, err := tx.Get(ctx, tableName, []any{id})
		tx.Commit(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("found=%v row=%v\n", found, row)
	case "scan":
		if len(fields) != 3 {
			return fmt.Errorf("usage: scan <region> <id>")
		}
		sess, id, err := sessAndID(db, fields)
		if err != nil {
			return err
		}
		tx, err := sess.Begin(ctx)
		if err != nil {
			return err
		}
		rows, err := tx.ScanPK(ctx, tableName, []any{id}, 10)
		tx.Commit(ctx)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Println(" ", r)
		}
		fmt.Printf("%d row(s)\n", len(rows))
	default:
		return fmt.Errorf("unknown command %q (try 'help')", fields[0])
	}
	return nil
}

// remoteStats dials a globaldb-server and prints the Stats admin frame:
// lifetime counters, the in-flight gauge, and per-statement-type latency
// quantiles from the server's histograms.
func remoteStats(ctx context.Context, addr string) error {
	cs, err := driver.Dial(ctx, addr, driver.Config{})
	if err != nil {
		return err
	}
	defer cs.Close()
	st, err := cs.ServerStats()
	if err != nil {
		return err
	}
	fmt.Printf("server %s\n", addr)
	fmt.Printf("  connections: accepted=%d active=%d\n", st.Accepted, st.Active)
	fmt.Printf("  statements:  total=%d in-flight=%d canceled=%d panics=%d rows-streamed=%d\n",
		st.Statements, st.InFlight, st.Canceled, st.Panics, st.RowsStreamed)
	if len(st.Latencies) > 0 {
		fmt.Println("  latency by statement type:")
		for _, l := range st.Latencies {
			mean := time.Duration(0)
			if l.Count > 0 {
				mean = time.Duration(l.SumNanos / l.Count)
			}
			fmt.Printf("    %-8s n=%-7d mean=%-10v p50=%-10v p95=%-10v p99=%v\n",
				l.Type, l.Count, mean.Round(time.Microsecond),
				time.Duration(l.P50Nanos), time.Duration(l.P95Nanos), time.Duration(l.P99Nanos))
		}
	}
	return nil
}

func sessAndID(db *globaldb.DB, fields []string) (*globaldb.Session, int64, error) {
	sess, err := db.Connect(fields[1])
	if err != nil {
		return nil, 0, err
	}
	id, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("bad id %q", fields[2])
	}
	return sess, id, nil
}
