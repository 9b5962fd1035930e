package cluster

import (
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globaldb/internal/coordinator"
	"globaldb/internal/gtm"
	"globaldb/internal/obs"
	"globaldb/internal/stats"
	"globaldb/internal/ts"
)

func oneMessageCommits() int64 { return obs.Default.Counter(stats.MetricOneMessageCommits).Value() }

// TestOpenGivesPrimariesClocks: every shard primary comes up with an oracle
// on its own region's clock, in the cluster's mode and under the transition
// controller, so single-shard commits are one message from the start and
// follow the cluster through mode changes.
func TestOpenGivesPrimariesClocks(t *testing.T) {
	c := open(t, smallCfg())
	for _, p := range c.Primaries() {
		if p.Oracle() == nil || p.Oracle().Mode() != ts.ModeGClock {
			t.Fatalf("primary %s: oracle %v", p.ID(), p.Oracle())
		}
	}
	before := oneMessageCommits()
	txn, _ := c.CN("xian").Begin(bg)
	txn.Put(bg, 2, key(2, 1), []byte("v"))
	if err := txn.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if got := oneMessageCommits() - before; got != 1 {
		t.Fatalf("one-message commits moved by %d, want 1", got)
	}
	if err := c.TransitionToGTM(bg); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Primaries() {
		if p.Oracle().Mode() != ts.ModeGTM {
			t.Fatalf("primary %s did not follow the transition: %v", p.ID(), p.Oracle().Mode())
		}
	}
	c.FailClockDevice("dongguan", true)
	deadline := time.Now().Add(5 * time.Second)
	for c.Primaries()[2].Oracle().Clock().Healthy(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the primary in dongguan does not read dongguan's time device")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.ClockHealthy(100 * time.Microsecond) {
		t.Fatal("ClockHealthy ignores the primaries' clocks")
	}
}

// TestMovePrimaryThenCommitStaysOneMessage: a moved primary gets a clock in
// its new region and takes the old one's place under the controller — a
// remote single-shard commit to it is still one request message — and a
// GClock→GTM transition afterwards issues only timestamps above everything
// either primary's clock handed out, the retired one's included.
func TestMovePrimaryThenCommitStaysOneMessage(t *testing.T) {
	// Keep the Xi'an→Dongguan link quiet, so every message counted on it is
	// one of this test's requests: no heartbeats to ship, and the moved shard
	// keeps no replica whose acknowledgements would travel it.
	cfg := smallCfg()
	cfg.RCP.HeartbeatInterval = time.Hour
	cfg.ReplicasPerShard = 1
	c := open(t, cfg)
	const shard = 1 // primary in langzhong, its replica in dongguan
	cn := c.CN("xian")
	sent := func() int64 { return c.Net.LinkStats("xian", "dongguan").Messages }
	commit := func(i int) ts.Timestamp {
		t.Helper()
		txn, err := cn.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Put(bg, shard, key(shard, i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		return txn.CommitTS()
	}

	oneMsg := oneMessageCommits()
	delegated := []ts.Timestamp{commit(1)}
	if got := oneMessageCommits() - oneMsg; got != 1 {
		t.Fatalf("commit before the move: one-message commits moved by %d, want 1", got)
	}
	// The old primary's clock hands out one more timestamp, well ahead of
	// every live clock — what a floor bump or a failing device produces.
	old := c.Primaries()[shard].Oracle()
	ahead, _, ok := old.IssueAbove(ts.FromTime(time.Now().Add(300 * time.Millisecond)))
	if !ok {
		t.Fatal("old primary's oracle not in GClock mode")
	}
	delegated = append(delegated, ahead)

	if err := c.MovePrimary(bg, shard, "dongguan"); err != nil {
		t.Fatal(err)
	}
	moved := c.Primaries()[shard]
	if moved.Oracle() == nil || moved.Oracle() == old || moved.Oracle().Mode() != ts.ModeGClock {
		t.Fatalf("moved primary's oracle: %v (old %v)", moved.Oracle(), old)
	}
	if _, _, ok := old.IssueAbove(0); ok {
		t.Fatal("the retired primary's oracle still issues timestamps")
	}
	before := sent()
	delegated = append(delegated, commit(2))
	if got := sent() - before; got != 1 {
		t.Fatalf("commit after the move: %d messages to the new primary, want 1", got)
	}
	if v := moved.Store().Versions(key(shard, 2)); len(v) != 1 || v[0].CommitTS != delegated[2] {
		t.Fatalf("moved primary's versions %v, transaction reports %v", v, delegated[2])
	}

	if err := c.TransitionToGTM(bg); err != nil {
		t.Fatal(err)
	}
	if moved.Oracle().Mode() != ts.ModeGTM {
		t.Fatalf("moved primary did not follow the transition: %v", moved.Oracle().Mode())
	}
	before = sent()
	first := commit(3)
	if got := sent() - before; got != 2 {
		t.Fatalf("commit under GTM: %d messages, want 2 (Write+Pending, Commit)", got)
	}
	for _, d := range delegated {
		if first <= d {
			t.Fatalf("GTM issued %v, not above the delegated %v (all: %v)", first, d, delegated)
		}
	}
}

// TestTransitionUnderDelegatedCommits runs single-shard writers in all three
// regions — their commits issued by the primaries' clocks whenever the
// cluster is in GClock mode — beside a cross-shard transfer and a replica
// reader, through GClock→GTM and back. No acked commit may be lost, each
// key's commit timestamps must strictly increase in commit order across both
// mode changes, and RCP reads must stay consistent.
func TestTransitionUnderDelegatedCommits(t *testing.T) {
	c := open(t, smallCfg())
	type ack struct {
		counter  uint64
		commitTS ts.Timestamp
	}
	type keyLog struct {
		shard int
		key   []byte
		acks  []ack
	}
	init, _ := c.CN("xian").Begin(bg)
	init.Put(bg, 0, []byte("acct-a"), []byte{100})
	init.Put(bg, 1, []byte("acct-b"), []byte{100})
	if err := init.Commit(bg); err != nil {
		t.Fatal(err)
	}
	waitRCP(t, c, init.CommitTS()) // the reader below starts with both accounts visible

	var stop atomic.Bool
	var phase atomic.Int32
	var commitsInPhase [3]atomic.Int64
	var wg sync.WaitGroup
	logs := make([][]*keyLog, len(c.Regions()))
	for w, region := range c.Regions() {
		for shard := 0; shard < c.Shards(); shard++ {
			logs[w] = append(logs[w], &keyLog{shard: shard, key: key(shard, 100+w)})
		}
		wg.Add(1)
		go func(cn *coordinator.CN, mine []*keyLog) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				kl := mine[i%len(mine)]
				txn, err := cn.Begin(bg)
				if errors.Is(err, gtm.ErrOldModeAborted) {
					continue // a GTM-mode request that reached the server after its switch
				}
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				v, found, err := txn.Get(bg, kl.shard, kl.key)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				var counter uint64
				if found {
					counter = binary.BigEndian.Uint64(v)
				}
				if n := len(kl.acks); n > 0 && counter != kl.acks[n-1].counter {
					t.Errorf("key %s reads %d, last acked commit wrote %d: a commit was lost", kl.key, counter, kl.acks[n-1].counter)
					return
				}
				p := phase.Load()
				txn.Put(bg, kl.shard, kl.key, binary.BigEndian.AppendUint64(nil, counter+1))
				if err := txn.Commit(bg); err != nil {
					if errors.Is(err, gtm.ErrOldModeAborted) {
						continue // Fig. 2: a GTM-begun transaction met the switch
					}
					t.Errorf("commit: %v", err)
					return
				}
				kl.acks = append(kl.acks, ack{counter + 1, txn.CommitTS()})
				commitsInPhase[p].Add(1)
			}
		}(c.CN(region), logs[w])
	}
	wg.Add(1)
	go func() { // the cross-shard transfer of TestRORNoTornMultiShardReads
		defer wg.Done()
		cn := c.CN("xian")
		for !stop.Load() {
			txn, err := cn.Begin(bg)
			if err != nil {
				continue
			}
			av, _, err1 := txn.Get(bg, 0, []byte("acct-a"))
			bv, _, err2 := txn.Get(bg, 1, []byte("acct-b"))
			if err1 != nil || err2 != nil {
				txn.Abort(bg)
				continue
			}
			txn.Put(bg, 0, []byte("acct-a"), []byte{av[0] - 1})
			txn.Put(bg, 1, []byte("acct-b"), []byte{bv[0] + 1})
			txn.Commit(bg)
		}
	}()
	checks := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		reader := c.CN("dongguan")
		for !stop.Load() {
			ro, err := reader.ReadOnly(bg, coordinator.AnyStaleness)
			if err != nil {
				t.Errorf("read-only begin: %v", err)
				return
			}
			av, foundA, err1 := ro.Get(bg, 0, []byte("acct-a"))
			bv, foundB, err2 := ro.Get(bg, 1, []byte("acct-b"))
			if err1 != nil || err2 != nil {
				t.Errorf("ro read: %v %v", err1, err2)
				return
			}
			if !foundA || !foundB || av[0]+bv[0] != 200 {
				t.Errorf("torn read at the RCP: a=%v(%v) b=%v(%v)", av, foundA, bv, foundB)
				return
			}
			checks++
		}
	}()

	oneMsg := oneMessageCommits()
	time.Sleep(60 * time.Millisecond)
	phase.Store(1)
	if err := c.TransitionToGTM(bg); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)
	phase.Store(2)
	if err := c.TransitionToGClock(bg); err != nil {
		t.Fatal(err)
	}
	oneMsgBack := oneMessageCommits()
	time.Sleep(60 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if checks == 0 {
		t.Fatal("no RCP consistency check ran")
	}
	for p := range commitsInPhase {
		if commitsInPhase[p].Load() == 0 {
			t.Fatalf("no commit was acked in phase %d", p)
		}
	}
	if oneMsgBack == oneMsg || oneMessageCommits() == oneMsgBack {
		t.Fatalf("one-message commits: %d before, %d at the return to GClock, %d at the end — want some before and some after",
			oneMsg, oneMsgBack, oneMessageCommits())
	}
	for _, mine := range logs {
		for _, kl := range mine {
			versions := c.Primaries()[kl.shard].Store().Versions(kl.key) // newest first
			if len(versions) != len(kl.acks) {
				t.Fatalf("key %s: %d versions, %d acked commits", kl.key, len(versions), len(kl.acks))
			}
			for i, a := range kl.acks {
				v := versions[len(versions)-1-i]
				if v.CommitTS != a.commitTS || binary.BigEndian.Uint64(v.Value) != a.counter {
					t.Fatalf("key %s commit %d: stored %v@%v, acked %d@%v", kl.key, i, v.Value, v.CommitTS, a.counter, a.commitTS)
				}
				if i > 0 && a.commitTS <= kl.acks[i-1].commitTS {
					t.Fatalf("key %s: commit %d at %v does not exceed its predecessor at %v", kl.key, i, a.commitTS, kl.acks[i-1].commitTS)
				}
			}
		}
	}
}

// TestThenCommitOnFailedClockDevice: a primary whose region lost its time
// device keeps committing correctly with an error bound past any health
// limit — its timestamps run further ahead, the coordinator's commit wait
// gets as much longer, and nothing is ever issued under the shard's
// watermark.
func TestThenCommitOnFailedClockDevice(t *testing.T) {
	cfg := smallCfg()
	cfg.Clock.MaxDriftPPM = 50_000 // the bound grows 50 µs per unsynced millisecond
	c := open(t, cfg)
	const shard = 2 // primary in dongguan
	const limit = 2 * time.Millisecond
	c.FailClockDevice("dongguan", true)
	primary := c.Primaries()[shard]
	deadline := time.Now().Add(5 * time.Second)
	for primary.Oracle().Clock().Healthy(limit) {
		if time.Now().After(deadline) {
			t.Fatal("the primary's clock stayed healthy without its device")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cn := c.CN("xian") // its own clock is healthy
	var last ts.Timestamp
	for i := 0; i < 5; i++ {
		watermark := primary.Store().LastCommitTS()
		oneMsg := oneMessageCommits()
		txn, err := cn.Begin(bg)
		if err != nil {
			t.Fatal(err)
		}
		txn.Put(bg, shard, key(shard, 1), []byte{byte(i)})
		start := time.Now()
		if err := txn.Commit(bg); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		got := txn.CommitTS()
		if oneMessageCommits() == oneMsg {
			t.Fatal("the commit did not take the one-message path")
		}
		if got <= watermark || got <= last {
			t.Fatalf("commit %d at %v: watermark was %v, previous commit %v", i, got, watermark, last)
		}
		if ahead := got.Sub(ts.FromTime(start)); ahead < limit {
			t.Fatalf("commit %d: timestamp only %v ahead of the request, with an error bound past %v", i, ahead, limit)
		}
		if took < limit {
			t.Fatalf("commit %d acked after %v: the commit wait did not cover the %v error bound", i, took, limit)
		}
		if lower := cn.Oracle().Clock().Now().Lower(); lower <= got {
			t.Fatalf("commit %d acked with the CN clock at %v, not past %v", i, lower, got)
		}
		last = got
	}
	v := primary.Store().Versions(key(shard, 1))
	if len(v) != 5 || v[0].CommitTS != last {
		t.Fatalf("versions after five commits: %v", v)
	}
}
