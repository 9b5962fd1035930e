package main

import (
	"context"
	"fmt"
	"time"

	"globaldb"
	"globaldb/internal/ts"
	"globaldb/internal/wal"
)

// Cluster settings shared by every workload; stated in the README so a
// result can be read without the source. WAN delay is injected, not hidden:
// ThreeCity is 25/35/55 ms RTT and timeScale shrinks it to 2.5/3.5/5.5 ms of
// wall time — large enough that time.Sleep slack is noise, small enough that
// CPU still shows in the latencies.
const (
	timeScale     = 0.1
	linkBandwidth = 4e6 // bytes/s before scaling, as in internal/experiments
	walLinger     = 500 * time.Microsecond
	walFsyncDelay = 300 * time.Microsecond // tmpfs hides real fsync cost
)

// geoConfig is the three-city cluster: 6 shards x (1 primary + 2 replicas),
// GClock, asynchronous replication, no jitter. A non-empty walDir makes it
// durable (group-commit WAL with a simulated device sync).
func geoConfig(walDir string) globaldb.Config {
	cfg := globaldb.ThreeCity()
	cfg.TimeScale = timeScale
	cfg.JitterFrac = 0
	for i := range cfg.Links {
		cfg.Links[i].Bandwidth = linkBandwidth
	}
	if walDir != "" {
		cfg.WALDir = walDir
		cfg.WALSync = wal.SyncGroup
		cfg.WALLinger = walLinger
		cfg.WALFsyncDelay = walFsyncDelay
	}
	return cfg
}

// localConfig is the zero-RTT cluster: same shards and replicas, no WAN
// delay and no WAL, so only CPU and allocations set the result.
func localConfig() globaldb.Config {
	cfg := globaldb.OneRegion(0)
	cfg.TimeScale = timeScale
	cfg.JitterFrac = 0
	return cfg
}

// waitRCPCoversLoad commits an empty marker transaction and waits until the
// replica consistency point passes its snapshot, so replica reads see the
// loaded data. It is part of set-up time.
func waitRCPCoversLoad(ctx context.Context, db *globaldb.DB) error {
	sess, err := db.Connect(db.Regions()[0])
	if err != nil {
		return err
	}
	marker, err := sess.Begin(ctx)
	if err != nil {
		return err
	}
	if err := marker.Commit(ctx); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for db.Cluster().Collector.RCP() < marker.Snapshot() {
		if time.Now().After(deadline) {
			return fmt.Errorf("RCP never covered the load (rcp=%v, want %v)",
				db.Cluster().Collector.RCP(), marker.Snapshot())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// rcpLag is how far the replica consistency point trails the wall clock:
// the staleness a replica read starting now would observe. GClock
// timestamps are wall-clock nanoseconds, so the subtraction is direct.
func rcpLag(db *globaldb.DB) time.Duration {
	return ts.FromTime(time.Now()).Sub(db.Cluster().Collector.RCP())
}
