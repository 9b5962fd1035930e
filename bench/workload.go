package main

import (
	"context"
	"math/rand"

	"globaldb"
	"globaldb/internal/cluster"
)

// numClients is fixed: the callers are TPC-C terminals and SQL sessions that
// wait for each reply (a closed loop), and the sandbox has two cores which
// the cluster's own goroutines share with them.
const numClients = 2

// workload is one set of inputs the benchmark runs. generate builds the
// per-client operation lists from the seed before any cluster exists; the
// system under test only ever sees the generated operations.
type workload interface {
	name() string
	generate(seed int64, sc scale)
	// setup opens the cluster, loads the data and waits until the RCP covers
	// the load. dir is a fresh directory for the WAL of durable clusters.
	setup(ctx context.Context, dir string) (env, error)
}

// env is one loaded cluster with its clients.
type env interface {
	database() *globaldb.DB
	clients() []client
	// check verifies the system's outputs after the run; executed is how
	// many operations each client has been through.
	check(ctx context.Context, executed []int) error
	// replicaReads reports how many reads ran and how many were served at
	// the RCP in replica mode.
	replicaReads() (onReplicas, reads int64)
	close()
}

// scale sizes every workload from one constant — it multiplies table sizes
// and op-list lengths alike — so the whole benchmark can be shrunk uniformly
// (the smoke test runs at a fraction of full size).
type scale float64

func (s scale) rows(n int) int  { return atLeast(int(float64(n)*float64(s)), 1) }
func (s scale) count(n int) int { return atLeast(int(float64(n)*float64(s)), 20) }

func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}

// warmShare of each op list is executed before measuring. The lists hold
// about what the two-core sandbox executes in run_seconds, so this is some
// five seconds of the workload's own mix.
const warmShare = 0.25

// threeCityRegions mirrors globaldb.ThreeCity(); generators need the
// key-to-city mapping before a cluster exists.
var threeCityRegions = globaldb.ThreeCity().Regions

const geoShards = 6

// regionOfKey is the city whose data node holds the primary of the shard a
// distribution value hashes to (shard s lives in region s mod 3).
func regionOfKey(distValue int64) string {
	return threeCityRegions[cluster.ShardOf(distValue, geoShards)%len(threeCityRegions)]
}

// shuffledMix returns n op kinds with exact shares (largest-remainder
// rounding) in seeded random order: every seed runs the same mix, only the
// order and the keys differ.
func shuffledMix(rng *rand.Rand, n int, shares []int) []uint8 {
	total := 0
	for _, s := range shares {
		total += s
	}
	out := make([]uint8, 0, n)
	for k, s := range shares {
		for i := 0; i < n*s/total; i++ {
			out = append(out, uint8(k))
		}
	}
	for k := 0; len(out) < n; k = (k + 1) % len(shares) {
		if shares[k] > 0 {
			out = append(out, uint8(k))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
