// Georeads: read-on-replica with tunable freshness and dynamic node
// selection (Sec. IV). A writer in Xi'an continuously updates a feed; a
// reader in Dongguan compares three strategies:
//
//  1. Transactional reads from the (remote) primary — always fresh, always
//     paying WAN latency.
//  2. Replica reads with unbounded staleness — served by the local replica
//     at the RCP snapshot.
//  3. Replica reads with a tight staleness bound — fall back to primaries
//     when the RCP lags too far.
//
// It also crashes the local replica mid-run to show the skyline rerouting
// reads without failing queries.
package main

import (
	"context"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"globaldb"
)

func main() {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = 0.2
	db, err := globaldb.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()

	if err := db.CreateTable(ctx, &globaldb.Schema{
		Name: "feed",
		Columns: []globaldb.Column{
			{Name: "id", Kind: globaldb.Int64},
			{Name: "version", Kind: globaldb.Int64},
		},
		PK: []int{0},
	}); err != nil {
		log.Fatal(err)
	}

	writer, _ := db.Connect("xian")
	reader, _ := db.Connect("dongguan")

	// Continuous writer.
	var version atomic.Int64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := version.Add(1)
			tx, err := writer.Begin(ctx)
			if err != nil {
				continue
			}
			if err := tx.Insert(ctx, "feed", globaldb.Row{int64(1), v}); err != nil {
				tx.Abort(ctx)
				continue
			}
			tx.Commit(ctx)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer close(stop)
	time.Sleep(100 * time.Millisecond) // let data flow

	timeRead := func(name string, read func() (int64, bool)) {
		start := time.Now()
		v, onReplica := read()
		fmt.Printf("%-34s version=%-6d latency=%-12v servedByReplica=%v\n",
			name, v, time.Since(start).Round(time.Microsecond), onReplica)
	}

	// 1. Remote primary read.
	timeRead("primary read (remote)", func() (int64, bool) {
		tx, err := reader.Begin(ctx)
		if err != nil {
			log.Fatal(err)
		}
		defer tx.Commit(ctx)
		row, _, err := tx.Get(ctx, "feed", []any{int64(1)})
		if err != nil {
			log.Fatal(err)
		}
		return row[1].(int64), false
	})

	// 2. Replica read, any staleness.
	timeRead("replica read (any staleness)", func() (int64, bool) {
		q, err := reader.ReadOnly(ctx, globaldb.AnyStaleness, "feed")
		if err != nil {
			log.Fatal(err)
		}
		row, found, err := q.Get(ctx, "feed", []any{int64(1)})
		if err != nil {
			log.Fatal(err)
		}
		if !found {
			return 0, q.OnReplicas()
		}
		return row[1].(int64), q.OnReplicas()
	})

	// 3. Tight staleness bound: if the RCP lags beyond 1ms the query
	// transparently falls back to fresh primary reads.
	timeRead("replica read (1ms bound)", func() (int64, bool) {
		q, err := reader.ReadOnly(ctx, time.Millisecond, "feed")
		if err != nil {
			log.Fatal(err)
		}
		row, found, err := q.Get(ctx, "feed", []any{int64(1)})
		if err != nil || !found {
			return 0, q.OnReplicas()
		}
		return row[1].(int64), q.OnReplicas()
	})

	// Crash the reader-side replica of the feed's shard; queries reroute.
	shard := db.Cluster().ShardOf(int64(1))
	for _, rep := range db.Cluster().Replicas(shard) {
		if rep.Region() == "dongguan" {
			fmt.Printf("\n-- crashing replica %s in dongguan --\n", rep.ID())
			rep.SetDown(true)
		}
	}
	time.Sleep(50 * time.Millisecond) // a status probe notices

	timeRead("replica read (after local crash)", func() (int64, bool) {
		q, err := reader.ReadOnly(ctx, globaldb.AnyStaleness, "feed")
		if err != nil {
			log.Fatal(err)
		}
		row, found, err := q.Get(ctx, "feed", []any{int64(1)})
		if err != nil || !found {
			return 0, q.OnReplicas()
		}
		return row[1].(int64), q.OnReplicas()
	})

	cnStats := reader.CN().Stats()
	fmt.Printf("\nreader CN stats: %+v\n", cnStats)
}
