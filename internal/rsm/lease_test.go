package rsm_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"joshua/internal/gcs"
	"joshua/internal/rsm"
	"joshua/internal/rsm/kvstore"
)

// orderedKV answers kvstore gets through the total order as well, so an
// ordered read that falls back to the broadcast is answered by Apply.
type orderedKV struct{ *kvstore.Store }

func (s orderedKV) Apply(cmd rsm.Command) []byte {
	req, err := kvstore.DecodeRequest(cmd.Payload)
	if err != nil || req.Op != kvstore.OpGet {
		return s.Store.Apply(cmd)
	}
	resp := &kvstore.Response{ReqID: req.ReqID, OK: true}
	resp.Value, resp.Found = s.Get(req.Key)
	return kvstore.EncodeResponse(resp)
}

// leasedKV turns gets whose ReqID starts with "ordered/" into leased
// ordered reads (the shape of joshua's classify), recording the
// verdict TryLeasedRead gave each of them.
type leasedKV struct {
	mu       sync.Mutex
	reps     map[gcs.MemberID]*atomic.Pointer[rsm.Replica]
	verdicts map[string]rsm.Verdict
}

func (l *leasedKV) mutate(cfg *rsm.Config) {
	store := cfg.Service.(*kvstore.Store)
	cfg.Service = orderedKV{store}
	base := kvstore.Classifier(store)
	rep := &atomic.Pointer[rsm.Replica]{}
	l.mu.Lock()
	l.reps[cfg.Self] = rep
	l.mu.Unlock()
	cfg.Classify = func(payload []byte) rsm.Classification {
		cls := base(payload)
		req, err := kvstore.DecodeRequest(payload)
		r := rep.Load()
		if err != nil || req.Op != kvstore.OpGet || !strings.HasPrefix(req.ReqID, "ordered/") || r == nil {
			return cls
		}
		v, index := r.TryLeasedRead()
		l.mu.Lock()
		l.verdicts[req.ReqID] = v
		l.mu.Unlock()
		switch v {
		case rsm.Reply:
			return cls
		case rsm.Park:
			cls.Verdict, cls.ReqID, cls.ReadIndex = rsm.Park, req.ReqID, index
			return cls
		}
		return rsm.Classification{Verdict: rsm.Replicate, ReqID: req.ReqID}
	}
}

func (l *leasedKV) verdict(reqID string) (rsm.Verdict, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.verdicts[reqID]
	return v, ok
}

// TestLeaseParkedReadFallsBackOnSequencerCrash parks an ordered read
// behind a sequence the head has received but cannot deliver, then
// takes its lease away by crashing the sequencer. The read must not be
// left waiting: the view change hands it to the broadcast path, which
// orders it after the stuck write and answers it.
func TestLeaseParkedReadFallsBackOnSequencerCrash(t *testing.T) {
	l := &leasedKV{reps: map[gcs.MemberID]*atomic.Pointer[rsm.Replica]{}, verdicts: map[string]rsm.Verdict{}}
	r := newKVRig(t, 3, func(cfg *rsm.Config) {
		l.mutate(cfg)
		cfg.TuneGCS = func(g *gcs.Config) {
			g.Heartbeat = 10 * time.Millisecond
			g.FailTimeout = time.Second
		}
	})
	for i, rep := range r.reps {
		l.reps[repMember(i)].Store(rep)
	}
	if resp, _ := r.call(1, &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpPut, Key: "k", Value: "v0"}, 5*time.Second); !resp.OK {
		t.Fatalf("put v0: %+v", resp)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !r.reps[1].Stats().LeaseHeld {
		if time.Now().After(deadline) {
			t.Fatal("replica 1 never granted a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// rep0 sequences; cutting rep2 off from it leaves the next write
	// received at rep1 but short of the safe-delivery watermark, so
	// rep1's read index runs one delivery ahead of what it can apply.
	r.net.Partition(repHost(0), repHost(2))
	r.send(1, &kvstore.Request{ReqID: r.reqID(), Op: kvstore.OpPut, Key: "k", Value: "v1"})
	deadline = time.Now().Add(5 * time.Second)
	for {
		if v, _ := r.reps[1].TryLeasedRead(); v == rsm.Park {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 1 never saw the undeliverable write")
		}
		time.Sleep(time.Millisecond)
	}

	before := r.reps[1].Stats()
	read := &kvstore.Request{ReqID: "ordered/read", Op: kvstore.OpGet, Key: "k"}
	r.send(1, read)
	deadline = time.Now().Add(5 * time.Second)
	for {
		v, ok := l.verdict(read.ReqID)
		if ok && v == rsm.Park {
			break
		}
		if ok || time.Now().After(deadline) {
			t.Fatalf("ordered read classified %v (seen %v), want Park", v, ok)
		}
		time.Sleep(time.Millisecond)
	}

	r.crash(0)
	resp, _ := r.await(read.ReqID, 10*time.Second)
	if !resp.OK || resp.Value != "v1" {
		t.Fatalf("ordered read answered %+v, want v1 (ordered after the stuck write)", resp)
	}
	after := r.reps[1].Stats()
	if after.LeaseFallbacks <= before.LeaseFallbacks {
		t.Errorf("lease fallbacks %d -> %d: the parked read never took the broadcast path", before.LeaseFallbacks, after.LeaseFallbacks)
	}
	if after.LeaseReads != before.LeaseReads {
		t.Errorf("lease reads %d -> %d: the parked read was served locally after its lease was gone", before.LeaseReads, after.LeaseReads)
	}
}
