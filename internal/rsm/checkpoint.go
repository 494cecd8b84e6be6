package rsm

import (
	"io"
	"runtime"
	"time"
)

// ckptJob is the replica state frozen on the loop for a checkpoint or
// a full transfer: the applied index it covers, the service image's
// encoder, and the dedup-table snapshot captured at the same instant
// (capturing it later would let the table drift past the service image
// and break exactly-once on recovery).
type ckptJob struct {
	index  uint64
	encode func() []byte
	ids    []string
	resps  [][]byte
}

// state encodes the captured image (off the loop) into the replica
// state format shared by checkpoints and full transfers.
func (j ckptJob) state() *replicaState {
	return &replicaState{Applied: j.index, Service: j.encode(), DedupIDs: j.ids, DedupResp: j.resps}
}

// maybeCheckpoint starts a checkpoint when the cadence is due, or when
// a failed attempt's retry backoff has expired. The loop captures the
// service image and the dedup snapshot — both must reflect exactly
// appliedIdx — and the checkpointer goroutine serializes, CRCs and
// fsyncs them; under CheckpointBlocking the loop does that write
// itself.
func (r *Replica) maybeCheckpoint() {
	if r.log == nil {
		return
	}
	if r.sinceCkpt < r.cfg.CheckpointEvery && !r.ckptRetry.Load() {
		return
	}
	if at := r.ckptRetryAt.Load(); at != 0 && time.Now().UnixNano() < at {
		return // failure backoff: don't thrash the serialize+fsync
	}
	if r.ckptInflight.Load() {
		return // one outstanding background checkpoint at a time
	}
	job := r.capture()
	r.ckptRetry.Store(false)
	r.sinceCkpt = 0
	if r.ckptQ == nil {
		r.writeCheckpoint(job)
		return
	}
	r.ckptInflight.Store(true)
	r.ckptQ <- job // buffered 1; the inflight gate makes this non-blocking
}

// forkOf captures the service state as of now and returns its encoder:
// the service's own Fork when it is a ForkingService, else the
// Snapshot bytes taken here. It runs on the event loop; the encoder
// may run anywhere, later.
func forkOf(s Service) func() []byte {
	if fs, ok := s.(ForkingService); ok {
		return fs.Fork()
	}
	state := s.Snapshot()
	return func() []byte { return state }
}

// capture freezes the replica state at appliedIdx (see ckptJob).
func (r *Replica) capture() ckptJob {
	ids, resps := r.dedup.snapshot()
	return ckptJob{index: r.appliedIdx, encode: forkOf(r.service), ids: ids, resps: resps}
}

// checkpointer writes captured checkpoints off the event loop, one at
// a time (ckptInflight).
func (r *Replica) checkpointer() {
	labelStage("checkpointer")
	for {
		select {
		case <-r.done:
			return
		case job := <-r.ckptQ:
			r.writeCheckpoint(job)
			r.ckptInflight.Store(false)
		}
	}
}

// writeCheckpoint serializes, frames and fsyncs one captured
// checkpoint; the log then releases every segment it covers. Failures
// arm the retry backoff.
func (r *Replica) writeCheckpoint(job ckptJob) {
	t0 := time.Now()
	st := job.state()
	prefix, tail := st.encodeSplit()
	size := len(prefix) + len(st.Service) + len(tail)
	src := io.MultiReader(&pacedReader{b: prefix}, &pacedReader{b: st.Service}, &pacedReader{b: tail})
	if err := r.log.SaveCheckpointFrom(job.index, src); err != nil {
		r.logf("checkpoint at %d failed: %v", job.index, err)
		r.checkpointFailed()
		return
	}
	r.checkpointDone(t0, size)
	r.logf("checkpoint at applied index %d", job.index)
}

// pacedReader feeds the checkpoint writer in small slices, yielding
// the processor after each one. The chunking+CRC work downstream is
// CPU-bound; on a small GOMAXPROCS the background write would
// otherwise hold the only P for a full preemption slice at a time,
// and every goroutine wakeup in a command's multi-hop path (loop →
// WAL → apply → reply) pays that delay — the very stall the off-loop
// checkpointer exists to remove. Yielding every 64 KiB bounds the
// induced pause at the cost of one slice.
type pacedReader struct {
	b []byte
}

func (p *pacedReader) Read(dst []byte) (int, error) {
	if len(p.b) == 0 {
		return 0, io.EOF
	}
	n := len(dst)
	if n > 64<<10 {
		n = 64 << 10
	}
	if n > len(p.b) {
		n = len(p.b)
	}
	copy(dst, p.b[:n])
	p.b = p.b[n:]
	runtime.Gosched()
	return n, nil
}

// ckptRetryBase is the first failure's backoff; each consecutive
// failure doubles it, capped at ckptRetryMax.
const (
	ckptRetryBase = 100 * time.Millisecond
	ckptRetryMax  = 10 * time.Second
)

// checkpointFailed arms the retry backoff after a failed checkpoint
// attempt: the checkpoint is still owed (ckptRetry), but the backoff
// keeps the loop from re-running the full serialize+fsync every round
// against a sick disk. Safe from the loop (CheckpointBlocking) and the
// checkpointer goroutine alike.
func (r *Replica) checkpointFailed() {
	n := r.ckptFails.Add(1)
	shift := n - 1
	if shift > 7 {
		shift = 7
	}
	backoff := ckptRetryBase << shift
	if backoff > ckptRetryMax {
		backoff = ckptRetryMax
	}
	r.ckptRetryAt.Store(time.Now().Add(backoff).UnixNano())
	r.ckptRetry.Store(true)
	r.bump(func(st *Stats) { st.CheckpointFailures++ })
}

// checkpointDone clears the failure backoff and records the completed
// checkpoint's duration and size.
func (r *Replica) checkpointDone(t0 time.Time, size int) {
	r.ckptFails.Store(0)
	r.ckptRetryAt.Store(0)
	r.ckptRetry.Store(false)
	dur := uint64(time.Since(t0))
	r.bump(func(st *Stats) {
		st.CkptLastDurationNs = dur
		st.CkptBytes = uint64(size)
	})
}
