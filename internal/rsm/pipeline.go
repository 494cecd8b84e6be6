package rsm

import (
	"time"

	"joshua/internal/wal"
)

// pendingApply is one delivery of a pipelined round. The round's
// commands live in a reused slab ([]pendingApply, value entries), and
// per-key runs are threaded through it with next indices, so batching
// a round allocates no per-command nodes.
type pendingApply struct {
	env   *envelope
	cmd   Command
	key   string // conflict key (fresh commands only)
	index uint64 // applied index (fresh commands only)
	resp  []byte
	seen  bool  // already in the dedup table (cross-round duplicate)
	dupOf int32 // >= 0: duplicate of cmds[dupOf] within this round; -1 otherwise
	next  int32 // next command in the same per-key run; -1 ends the run
}

// releaseBatch is one round's output, handed to the releaser
// goroutine: replies held until the round's durability epoch (tk)
// completes, plus the round's envelopes, whose pipeline references
// drop only after both durability and reply queueing are done.
// Batches are released strictly in round order, so a later round's
// replies can never overtake an earlier round's.
type releaseBatch struct {
	tk       *wal.Ticket // nil: the round appended nothing awaiting durability
	maxIndex uint64      // durable watermark once tk resolves (0 = none)
	replies  []reply
	envs     []*envelope // round envelopes; releaser drops the pipeline reference
	t0       time.Time   // when the round's commit was issued (apply-stage start)
	applyEnd time.Time   // when the round's apply stage finished
}

// applyRun hands one per-key run to an apply worker: the round's
// command slab plus the head of an intrusive linked list (next
// indices) through it. Carrying the slab in the message keeps the
// workers free of shared mutable fields.
type applyRun struct {
	cmds []pendingApply
	head int32
}

// takeReplySlice / takeEnvSlice pull a recycled per-round slice from
// the releaser, or report empty so append allocates one that will
// enter the cycle.
func (r *Replica) takeReplySlice() []reply {
	select {
	case s := <-r.replyFree:
		return s
	default:
		return nil
	}
}

func (r *Replica) takeEnvSlice() []*envelope {
	select {
	case s := <-r.envFree:
		return s
	default:
		return nil
	}
}

// applyBatch runs one collected round through the three pipeline
// stages. Stage 1 (in total order, on the loop): classify each
// delivery against the dedup table, assign applied indices, and append
// fresh commands to the WAL; then issue the round's group-commit fsync
// asynchronously. Stage 2 (concurrent with the fsync): execute the
// batch, partitioned by ConflictKey into per-key runs on the bounded
// worker pool. Stage 3: hand the round's replies to the releaser,
// which holds them until the fsync lands. Dedup inserts and eviction
// happen back on the loop in total order, so the table stays identical
// across replicas. Under ApplyOnLoop the commit is issued only after
// stage 2 and awaited here, on the loop.
func (r *Replica) applyBatch(batch []*envelope) {
	if len(batch) == 0 {
		return
	}
	t0 := time.Now()
	// The round's commands live in a reused value slab. It is sized up
	// front: later stages hold &cmds[i] pointers (and run links), so
	// append must never reallocate the backing array mid-round.
	cmds := r.paBuf
	if cap(cmds) < len(batch) {
		cmds = make([]pendingApply, 0, len(batch)+64)
	}
	cmds = cmds[:0]
	if r.posIdx == nil {
		r.posIdx = make(map[string]int, 256)
	}
	clear(r.posIdx)
	pos := r.posIdx // ReqID → first copy this round
	fresh := 0
	for _, env := range batch {
		cmds = append(cmds, pendingApply{env: env, dupOf: -1, next: -1})
		pa := &cmds[len(cmds)-1]
		if j, ok := pos[env.ReqID]; ok {
			pa.dupOf = int32(j)
		} else if _, _, seen := r.dedup.lookup(env.ReqID); seen {
			pa.seen = true
			pos[env.ReqID] = len(cmds) - 1
		} else {
			r.appliedIdx++
			pa.index = r.appliedIdx
			pa.cmd = Command{ReqID: env.ReqID, Payload: env.Payload, Origin: env.Origin, Client: env.Client}
			pa.key = r.service.ConflictKey(pa.cmd)
			if r.log != nil {
				// Write-ahead: the record hits the log before Apply
				// runs. Recovery replay is dedup-checked and replays
				// the log in index order, so a record that outlives a
				// crash mid-apply is simply (re)applied at restart.
				// The staged frame shares the envelope's wire buffer
				// (no copy); the ref is dropped by the flush.
				env.ref()
				if err := r.log.AppendShared(pa.index, env.wire(), env); err != nil {
					env.release()
					r.logf("wal append at %d failed: %v", pa.index, err)
				} else {
					r.walDirty = true
					r.sinceCkpt++
				}
			}
			pos[env.ReqID] = len(cmds) - 1
			fresh++
		}
	}
	r.paBuf = cmds

	// Publish the round's applied index before execution starts: the
	// leased-read durability gate must see the pre-apply value so it
	// cannot pass while this round's effects outrun the fsync.
	r.appliedPub.Store(r.appliedIdx)

	// Stage 1→2 handoff: start the group-commit fsync, then execute
	// the batch while it is in flight.
	var tk *wal.Ticket
	var maxIndex uint64
	if r.applyConc > 0 {
		tk, maxIndex = r.commitTicket()
	}
	r.applySections(cmds)
	applyEnd := time.Now()
	if r.applyConc == 0 {
		if tk, maxIndex = r.commitTicket(); tk != nil {
			r.awaitDurable(tk, maxIndex, applyEnd, applyEnd)
			tk = nil
		}
	}

	// Post-apply bookkeeping, in total order on the loop. Dedup-hit
	// replies are copied out of the table under its lock (fetch): the
	// entry's buffer recycles on eviction, so handing out a view would
	// race with later rounds.
	replies := r.takeReplySlice()
	for i := range cmds {
		pa := &cmds[i]
		src := pa
		if pa.dupOf >= 0 {
			src = &cmds[pa.dupOf]
		} else if !pa.seen {
			r.dedupInsert(pa.env.ReqID, pa.resp, pa.index)
		}
		if pa.env.Client == "" || !r.view.Primary || !r.shouldReply(pa.env) {
			continue
		}
		if src.seen {
			if enc, _, ok := r.dedup.fetch(pa.env.ReqID); ok && enc != nil {
				replies = append(replies, reply{to: pa.env.Client, payload: enc.Bytes(), enc: enc})
			}
		} else if src.resp != nil {
			replies = append(replies, reply{to: pa.env.Client, payload: src.resp})
		}
	}
	if fresh > 0 {
		r.bump(func(st *Stats) {
			st.Applied += uint64(fresh)
			st.AppliedIndex = r.appliedIdx
		})
	}
	envs := append(r.takeEnvSlice(), batch...)
	r.dispatch(releaseBatch{tk: tk, maxIndex: maxIndex, replies: replies, envs: envs, t0: t0, applyEnd: applyEnd})

	// Every delivery in the batch is now reflected in local state;
	// credit them against the group layer's delivered count so leased
	// reads know the apply queue is drained.
	r.delivHandled.Add(uint64(len(batch)))

	r.maybeCheckpoint()
}

// applySections executes one collected round. Commands with an empty
// ConflictKey are global barriers, applied alone in log order; maximal
// spans of keyed commands between barriers are partitioned into
// per-key runs (log order within each run) and the runs execute
// concurrently on the bounded apply pool. Every replica partitions the
// same totally ordered batch identically, and distinct keys commute by
// the Service contract, so the resulting state is deterministic.
func (r *Replica) applySections(cmds []pendingApply) {
	var parallelRuns, barriers uint64
	for i := 0; i < len(cmds); {
		pa := &cmds[i]
		if pa.dupOf >= 0 || pa.seen {
			i++
			continue
		}
		if pa.key == "" {
			pa.resp = r.service.Apply(pa.cmd)
			barriers++
			i++
			continue
		}
		// Partition the maximal keyed span into per-key runs threaded
		// through the slab with next links — no per-run slices, no
		// per-span map churn (runIdx is reused and cleared).
		if r.runIdx == nil {
			r.runIdx = make(map[string]int, 64)
		}
		clear(r.runIdx)
		heads := r.runHeads[:0]
		tails := r.runTails[:0]
		j := i
		for ; j < len(cmds); j++ {
			q := &cmds[j]
			if q.dupOf >= 0 || q.seen {
				continue
			}
			if q.key == "" {
				break
			}
			if k, ok := r.runIdx[q.key]; ok {
				cmds[tails[k]].next = int32(j)
				tails[k] = int32(j)
			} else {
				r.runIdx[q.key] = len(heads)
				heads = append(heads, int32(j))
				tails = append(tails, int32(j))
			}
		}
		r.runHeads, r.runTails = heads, tails
		if len(heads) == 1 || r.applyQ == nil {
			for _, h := range heads {
				for k := h; k >= 0; k = cmds[k].next {
					q := &cmds[k]
					q.resp = r.service.Apply(q.cmd)
				}
			}
		} else {
			for _, h := range heads {
				r.applyWG.Add(1)
				r.applyQ <- applyRun{cmds: cmds, head: h}
			}
			r.applyWG.Wait()
			parallelRuns += uint64(len(heads))
		}
		i = j
	}
	if parallelRuns > 0 || barriers > 0 {
		r.bump(func(st *Stats) {
			st.ApplyParallelRuns += parallelRuns
			st.ApplyBarriers += barriers
		})
	}
}

// applyWorker executes per-key runs for applySections. The channel is
// closed by the event loop on shutdown; every queued run drains first,
// so applyWG.Wait cannot hang on an abandoned run.
func (r *Replica) applyWorker() {
	labelStage("apply_worker")
	for run := range r.applyQ {
		for k := run.head; k >= 0; k = run.cmds[k].next {
			q := &run.cmds[k]
			q.resp = r.service.Apply(q.cmd)
		}
		r.applyWG.Done()
	}
}

// commitTicket issues the group commit for the records appended since
// the last one, returning its ticket and the applied index it makes
// durable; nil when nothing awaits a commit.
func (r *Replica) commitTicket() (*wal.Ticket, uint64) {
	if !r.walDirty {
		return nil, 0
	}
	r.walDirty = false
	return r.log.CommitTicket(), r.appliedIdx
}

// dispatch hands one round's output to the releaser, in round order.
// If the replica is shutting down the batch's envelope references are
// dropped here instead.
func (r *Replica) dispatch(b releaseBatch) {
	if b.tk == nil && len(b.replies) == 0 && len(b.envs) == 0 {
		return
	}
	select {
	case r.relQ <- b:
	case <-r.done:
		for _, env := range b.envs {
			env.release()
		}
	}
}

// releaser drains release batches strictly in round order: each
// batch's replies leave only after its durability epoch resolves, so
// no client is ever acknowledged for a command the log could still
// lose, and a later round's reply can never overtake an earlier
// round's (same-client FIFO holds by construction).
func (r *Replica) releaser() {
	labelStage("releaser")
	for {
		select {
		case <-r.done:
			return
		case b := <-r.relQ:
			if b.tk != nil {
				r.awaitDurable(b.tk, b.maxIndex, b.t0, b.applyEnd)
			}
			for _, rep := range b.replies {
				r.sendAsync(rep)
			}
			// The round is fully released: durability resolved and
			// replies queued. Drop the pipeline's envelope references
			// and hand the slices back to the loop for the next round.
			for i, env := range b.envs {
				env.release()
				b.envs[i] = nil
			}
			if b.envs != nil {
				select {
				case r.envFree <- b.envs[:0]:
				default:
				}
			}
			if b.replies != nil {
				clear(b.replies)
				select {
				case r.replyFree <- b.replies[:0]:
				default:
				}
			}
		}
	}
}

// awaitDurable waits for one round's group commit, records how the
// fsync overlapped the round's apply stage (started at t0, finished at
// applyEnd), and advances durableIdx to maxIndex on success. Wait
// resolves even on Close: the log completes every outstanding ticket
// with its final fsync's outcome.
func (r *Replica) awaitDurable(tk *wal.Ticket, maxIndex uint64, t0, applyEnd time.Time) {
	err := tk.Wait()
	at := time.Now()
	if err != nil {
		r.logf("wal commit failed: %v", err)
	}
	// Overlap: the interval both the fsync and the apply stage were
	// running; lag: how long the round's replies waited on durability
	// after apply finished.
	end := at
	if applyEnd.Before(end) {
		end = applyEnd
	}
	overlap := end.Sub(t0)
	if overlap < 0 {
		overlap = 0
	}
	lag := at.Sub(applyEnd)
	if lag < 0 {
		lag = 0
	}
	r.bump(func(st *Stats) {
		st.FsyncOverlapNs += uint64(overlap)
		if uint64(lag) > st.DurabilityLagMax {
			st.DurabilityLagMax = uint64(lag)
		}
	})
	if err == nil && maxIndex > 0 {
		r.durableIdx.Store(maxIndex)
	}
}

// dedupInsert records a response (tagged with its applied index, the
// durability-gate watermark for retries); the table evicts FIFO past
// its limit internally. Because every replica applies the same
// commands in the same order, the table (and its eviction) is
// identical everywhere.
func (r *Replica) dedupInsert(reqID string, resp []byte, index uint64) {
	if !r.dedup.put(reqID, resp, index) {
		return
	}
	r.bump(func(st *Stats) { st.DedupEntries = r.dedup.live() })
}
