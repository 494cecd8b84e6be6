package rsm_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
)

// waitCheckpoint polls until replica i has a durable checkpoint and no
// background write in flight. The off-loop checkpointer commits
// asynchronously after the cadence trips, so tests must wait rather
// than assert immediately after the triggering command.
func (r *kvRig) waitCheckpoint(i int, timeout time.Duration) rsm.Stats {
	r.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := r.reps[i].Stats()
		if st.CheckpointIndex > 0 && !st.CkptInflight {
			return st
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("replica %d never checkpointed: %+v", i, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOffLoopCheckpointRestart pins the forked checkpoint path end to
// end: the kvstore implements ForkingService, so the cadence trips a
// background capture+serialize+fsync whose durable result a restart
// recovers from, replaying only the post-checkpoint suffix.
func TestOffLoopCheckpointRestart(t *testing.T) {
	durable := durableIn(t.TempDir(), func(c *rsm.Config) { c.CheckpointEvery = 4 })
	r := newKVRig(t, 1, durable)

	const n = 10
	for i := 0; i < n; i++ {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
	}
	st := r.waitCheckpoint(0, 5*time.Second)
	if st.CheckpointFailures != 0 {
		t.Fatalf("background checkpoint failed %d times: %+v", st.CheckpointFailures, st)
	}
	if st.CkptBytes == 0 || st.CkptLastDurationNs == 0 {
		t.Errorf("off-loop checkpoint stats not recorded: bytes=%d duration=%d", st.CkptBytes, st.CkptLastDurationNs)
	}

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)

	for i := 0; i < n; i++ {
		if got, _ := r.stores[0].Get(fmt.Sprintf("k%d", i)); got != "v" {
			t.Fatalf("recovered k%d = %q, want v", i, got)
		}
	}
	rst := r.reps[0].Stats()
	if rst.AppliedIndex != n {
		t.Fatalf("recovered applied index = %d, want %d", rst.AppliedIndex, n)
	}
	if rst.RecoveryReplayed >= n {
		t.Errorf("replayed %d of %d; the background checkpoint did not cut replay", rst.RecoveryReplayed, n)
	}
	if rst.RecoveryReplayed != rst.AppliedIndex-rst.CheckpointIndex {
		t.Errorf("replayed %d, want applied-checkpoint = %d", rst.RecoveryReplayed, rst.AppliedIndex-rst.CheckpointIndex)
	}
}

// TestBlockingCheckpointAblation pins the ablation: CheckpointBlocking
// writes checkpoints on the loop even for a ForkingService, and the
// result is just as durable.
func TestBlockingCheckpointAblation(t *testing.T) {
	durable := durableIn(t.TempDir(), func(c *rsm.Config) {
		c.CheckpointEvery = 4
		c.CheckpointBlocking = true
	})
	r := newKVRig(t, 1, durable)

	const n = 10
	for i := 0; i < n; i++ {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
	}
	// Blocking checkpoints commit on the loop before the reply, so no
	// polling is needed.
	st := r.reps[0].Stats()
	if st.CheckpointIndex == 0 {
		t.Fatalf("no checkpoint after %d commands at cadence 4: %+v", n, st)
	}
	if st.CkptInflight {
		t.Error("blocking path left a background checkpoint in flight")
	}

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)
	if got, _ := r.stores[0].Get("k0"); got != "v" {
		t.Fatalf("recovered k0 = %q, want v", got)
	}
	if rst := r.reps[0].Stats(); rst.RecoveryReplayed >= n {
		t.Errorf("replayed %d of %d; the blocking checkpoint did not cut replay", rst.RecoveryReplayed, n)
	}
}

// TestJoinUsesHybridTransfer pins the re-layered state transfer: with
// the delta path disabled by a tiny size cap, a fresh joiner receives
// the donor's newest durable checkpoint file plus the WAL suffix after
// it, and replays the suffix through the normal apply path.
func TestJoinUsesHybridTransfer(t *testing.T) {
	tiny := durableIn(t.TempDir(), func(c *rsm.Config) {
		c.CheckpointEvery = 4
		c.DeltaMaxBytes = 1 // refuse every delta: forces checkpoint+suffix
	})
	r := newKVRig(t, 2, tiny)

	want := map[string]string{}
	for i := 0; i < 10; i++ {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
		want[req.Key] = "v"
	}
	r.waitConverged(want, 5*time.Second)
	r.waitCheckpoint(0, 5*time.Second)
	r.waitCheckpoint(1, 5*time.Second)

	r.join(2, tiny)
	r.waitConverged(want, 10*time.Second)

	jst := r.reps[2].Stats()
	if jst.TransferInHybrid != 1 || jst.TransferInFull != 0 || jst.TransferInDelta != 0 {
		t.Errorf("joiner transfer stats = %+v, want exactly one hybrid transfer", jst)
	}
	if jst.TransferStreamChunks == 0 {
		t.Errorf("joiner recorded no stream chunks: %+v", jst)
	}
	var outHybrid uint64
	for i := 0; i < 2; i++ {
		outHybrid += r.reps[i].Stats().TransferOutHybrid
	}
	if outHybrid != 1 {
		t.Errorf("donors served %d hybrid transfers, want 1", outHybrid)
	}

	// The joiner installed the checkpoint as its own durable base: a
	// crash and restart recovers locally without replaying the full
	// history.
	r.crash(2)
	r.restart(2, nil, tiny)
	r.waitConverged(want, 10*time.Second)
	if rst := r.reps[2].Stats(); rst.RecoveryReplayed >= 10 {
		t.Errorf("joiner replayed %d records after restart; the transferred checkpoint was not installed", rst.RecoveryReplayed)
	}
}

// plainService exposes only the Service methods of what it wraps, so a
// ForkingService loses its Fork: the engine must checkpoint and
// transfer from Snapshot bytes captured on the loop.
type plainService struct{ rsm.Service }

// TestServiceWithoutForkCheckpointsAndTransfers runs the durable paths
// on a service without Fork: checkpoints bound restart replay, and
// joiners are served the donor's checkpoint plus its log suffix.
func TestServiceWithoutForkCheckpointsAndTransfers(t *testing.T) {
	durable := durableIn(t.TempDir(), func(c *rsm.Config) {
		c.Service = plainService{c.Service}
		c.CheckpointEvery = 4
		c.DeltaMaxBytes = 1 // refuse every delta: forces checkpoint+suffix
	})
	r := newKVRig(t, 1, durable)
	if _, ok := interface{}(plainService{}).(rsm.ForkingService); ok {
		t.Fatal("plainService must not implement ForkingService")
	}

	want := map[string]string{}
	put := func(i int) {
		req := &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpAppend, Key: fmt.Sprintf("k%d", i), Value: "v"}
		if resp, _ := r.call(0, req, 5*time.Second); !resp.OK {
			t.Fatalf("append %d: %+v", i, resp)
		}
		want[req.Key] = "v"
	}
	for i := 0; i < 10; i++ {
		put(i)
	}
	r.waitCheckpoint(0, 5*time.Second)

	r.crash(0)
	r.restart(0, []gcs.MemberID{repMember(0)}, durable)
	r.waitConverged(want, 5*time.Second)
	st := r.reps[0].Stats()
	if st.AppliedIndex != 10 || st.CheckpointIndex == 0 {
		t.Fatalf("recovered stats = %+v, want applied index 10 over a checkpoint", st)
	}
	if st.RecoveryReplayed != st.AppliedIndex-st.CheckpointIndex {
		t.Errorf("replayed %d, want applied-checkpoint = %d", st.RecoveryReplayed, st.AppliedIndex-st.CheckpointIndex)
	}

	for i := 10; i < 13; i++ {
		put(i)
	}
	r.join(1, durable)
	r.waitConverged(want, 10*time.Second)
	r.join(2, durable)
	r.waitConverged(want, 10*time.Second)

	for _, i := range []int{1, 2} {
		jst := r.reps[i].Stats()
		if jst.TransferInHybrid != 1 || jst.TransferInFull != 0 || jst.TransferInDelta != 0 {
			t.Errorf("joiner %d transfer stats = %+v, want exactly one hybrid transfer", i, jst)
		}
	}
	snap := r.stores[0].Snapshot()
	for i := 1; i < 3; i++ {
		if got := r.stores[i].Snapshot(); !bytes.Equal(got, snap) {
			t.Errorf("replica %d snapshot differs from replica 0 (%d vs %d bytes)", i, len(got), len(snap))
		}
	}
}
