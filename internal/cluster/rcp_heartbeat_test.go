package cluster

import (
	"testing"
	"time"

	"globaldb/internal/ts"
)

// TestRCPHeartbeatPathFollowsTheMode: on an idle cluster under GClock the
// primaries stamp their own heartbeats — the GTM issues nothing, and the RCP
// keeps pace with real time, never ahead of it. After a transition to GTM
// the collector fetches a GTM timestamp per tick and sends it, and the RCP
// keeps moving; back under GClock the primaries take over again. A primary
// move rebuilds the collector over the promoted primary's own stamps.
func TestRCPHeartbeatPathFollowsTheMode(t *testing.T) {
	c := open(t, smallCfg())
	rises := func(what string) ts.Timestamp {
		t.Helper()
		from := c.Collector.RCP()
		deadline := time.Now().Add(5 * time.Second)
		for c.Collector.RCP() <= from {
			if time.Now().After(deadline) {
				t.Fatalf("%s: RCP stuck at %v", what, from)
			}
			time.Sleep(time.Millisecond)
		}
		return c.Collector.RCP()
	}

	issued := c.GTMServer.Stats().IssuedGTM
	for i := 0; i < 5; i++ {
		if rcp := rises("GClock"); rcp > ts.FromTime(time.Now()) {
			t.Fatalf("RCP %v is ahead of real time: a heartbeat was stamped above it", rcp)
		}
	}
	if got := c.GTMServer.Stats().IssuedGTM - issued; got != 0 {
		t.Fatalf("the GTM issued %d timestamps on an idle GClock cluster", got)
	}

	if err := c.TransitionToGTM(bg); err != nil {
		t.Fatal(err)
	}
	// Once a tick has fetched a GTM timestamp, every heartbeat sent before
	// the switch has been acked (a tick waits for its acks), and every GTM
	// timestamp is above every clock reading taken before the switch. So an
	// RCP past every primary's watermark after that is one that GTM
	// heartbeats carried on every shard.
	issued = c.GTMServer.Stats().IssuedGTM
	deadline := time.Now().Add(5 * time.Second)
	for c.GTMServer.Stats().IssuedGTM == issued {
		if time.Now().After(deadline) {
			t.Fatal("no GTM heartbeat timestamp fetched under GTM")
		}
		time.Sleep(time.Millisecond)
	}
	var logged ts.Timestamp
	for _, p := range c.Primaries() {
		logged = max(logged, p.Store().LastCommitTS())
	}
	for c.Collector.RCP() <= logged {
		rises("GTM")
	}

	if err := c.TransitionToGClock(bg); err != nil {
		t.Fatal(err)
	}
	rises("GClock again")
	if err := c.MovePrimary(bg, 0, c.Replicas(0)[0].Region()); err != nil {
		t.Fatal(err)
	}
	issued = c.GTMServer.Stats().IssuedGTM
	rises("after a primary move")
	rises("after a primary move")
	if got := c.GTMServer.Stats().IssuedGTM - issued; got != 0 {
		t.Fatalf("the GTM issued %d timestamps after the move, under GClock", got)
	}
}
