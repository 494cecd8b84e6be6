package joshua

import (
	"testing"
	"time"

	"joshua/internal/rsm"
)

// This file is the allocation gate for the two hot paths PR targets:
// the client's submit encode and the server's leased ordered read.
// The AllocsPerRun tests fail the ordinary test run on any regression;
// the benchmarks report allocs/op for the CI -benchmem threshold
// check. "Zero" means zero at the codec boundary: pooled encoders in,
// zero-copy decoder views out, cached listing bodies spliced behind
// the caller's ReqID.

// benchSubmitReq is a representative qsub request.
func benchSubmitReq() *rpcRequest {
	return &rpcRequest{
		ReqID: "login1/cli#00000042",
		Op:    OpSubmit,
		Args:  cmdArgs{Name: "bench", Owner: "bench", Script: "#!/bin/sh\ntrue\n", Hold: true},
	}
}

// leaseRig boots a single head and waits for it to grant itself a
// lease, then returns the server plus an encoded ordered StatAll
// request whose classification must take the leased local path.
func leaseRig(t testing.TB) (*Server, []byte) {
	r := newRawRig(t, 1, nil)
	s := r.heads[0]

	// Seed one job through the real client path so listings carry
	// payload and the stat cache has something to encode.
	seed := &rpcRequest{ReqID: "user/raw#seed", Op: OpSubmit, Args: cmdArgs{Name: "seed", Hold: true}}
	if resp := r.sendReq(t, 0, seed, 5*time.Second); !resp.OK {
		t.Fatalf("seed submit rejected: %s", resp.ErrMsg)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !s.Replica().Stats().LeaseHeld {
		if time.Now().After(deadline) {
			t.Fatal("head never granted itself a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	payload := (&rpcRequest{ReqID: "user/raw#read", Op: OpStatAll, Ordered: true}).encode()
	return s, payload
}

// leasedServe classifies payload and builds the reply; it is the
// measured operation.
func leasedServe(t testing.TB, s *Server, payload []byte) {
	cls := s.classify(payload)
	if cls.Verdict != rsm.Reply || cls.RespondEnc == nil {
		t.Fatal("ordered read fell back to broadcast: lease lost mid-measurement")
	}
	enc := cls.RespondEnc(payload)
	if enc == nil {
		t.Fatal("read handler returned no encoder")
	}
	enc.Release()
}

func TestSubmitEncodeZeroAlloc(t *testing.T) {
	req := benchSubmitReq()
	req.encodeTo().Release() // warm the encoder pool
	allocs := testing.AllocsPerRun(200, func() {
		enc := req.encodeTo()
		_ = enc.Bytes()
		enc.Release()
	})
	if allocs != 0 {
		t.Errorf("submit encode: %v allocs/op, want 0", allocs)
	}
}

func TestLeasedReadServeZeroAlloc(t *testing.T) {
	s, payload := leaseRig(t)
	leasedServe(t, s, payload) // warm the pool and the stat cache
	allocs := testing.AllocsPerRun(200, func() {
		leasedServe(t, s, payload)
	})
	if allocs != 0 {
		t.Errorf("leased StatAll serve: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkSubmitEncode(b *testing.B) {
	req := benchSubmitReq()
	req.encodeTo().Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := req.encodeTo()
		_ = enc.Bytes()
		enc.Release()
	}
}

func BenchmarkLeasedReadServe(b *testing.B) {
	s, payload := leaseRig(b)
	leasedServe(b, s, payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leasedServe(b, s, payload)
	}
}
