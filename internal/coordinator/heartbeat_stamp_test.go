package coordinator

import (
	"testing"

	"globaldb/internal/datanode"
	"globaldb/internal/ts"
)

// TestHeartbeatStampBelowLaterTwoPhaseCommit is the stamp rule, on the skew
// rig's manual clock with no time passing. The primary stamps a heartbeat;
// replicas that replay it report the shard complete up to the stamp, so an
// RCP snapshot at the stamp reads the shard without waiting. A 2PC
// transaction then prepares there — after the stamp in the log, so such a
// snapshot does not see its intent — and the slow CN, whose clock trails,
// coordinates it. Its commit timestamp is that CN's Tclock + Terr, read after
// the stamp, and must land above the stamp: below it, the snapshot would have
// skipped a commit it covers. The primary's lower bound (true-80µs here)
// leaves room for any clock within its bound; an upper bound read by a
// faster clock than the coordinator's (the fast CN's true+100µs against the
// slow CN's true+60µs) does not.
func TestHeartbeatStampBelowLaterTwoPhaseCommit(t *testing.T) {
	r := newSkewRig(t)
	stamp, ok := r.primary.StampHeartbeat()
	if !ok {
		t.Fatal("a GClock primary did not stamp its own heartbeat")
	}
	if r.primary.Store().LastCommitTS() != stamp {
		t.Fatalf("watermark %v after the stamp %v", r.primary.Store().LastCommitTS(), stamp)
	}

	const txn = 7
	ops := []datanode.WriteOp{{Key: []byte("k"), Value: []byte("v")}}
	if err := r.client.WriteThen(bg, r.primary.ID(), txn, ts.Max, ops, datanode.ThenPrepare, r.primary.ID()); err != nil {
		t.Fatal(err)
	}
	commitTS, _, err := r.slow.oracle.Commit(bg, ts.ModeGClock)
	if err != nil {
		t.Fatal(err)
	}
	if commitTS <= stamp {
		t.Fatalf("the trailing coordinator committed at %v, at or below the heartbeat stamp %v", commitTS, stamp)
	}
	if err := r.client.CommitPrepared(bg, r.primary.ID(), txn, commitTS, false); err != nil {
		t.Fatal(err)
	}
}
