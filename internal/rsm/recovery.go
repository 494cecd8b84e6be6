package rsm

import "fmt"

// loadState installs a decoded replicaState: service, dedup table,
// applied index. reset shrinks the shards back to their initial
// footprint, so a transfer-bloated table is not pinned.
func (r *Replica) loadState(st *replicaState) error {
	if err := r.service.Restore(st.Service); err != nil {
		return err
	}
	r.dedup.reset()
	for i, id := range st.DedupIDs {
		// Index 0: transferred/checkpointed responses predate the local
		// log, so the durability gate treats them as always durable.
		r.dedup.put(id, st.DedupResp[i], 0)
	}
	r.appliedIdx = st.Applied
	r.appliedPub.Store(r.appliedIdx)
	r.bump(func(s *Stats) {
		s.DedupEntries = r.dedup.size()
		s.AppliedIndex = r.appliedIdx
	})
	return nil
}

// recoverLocal rebuilds the replica from its data directory before it
// joins the group: newest checkpoint first, then every log record
// after it.
func (r *Replica) recoverLocal() error {
	ckptIdx, ckptState := r.log.Checkpoint()
	if ckptState != nil {
		st, err := decodeReplicaState(ckptState)
		if err != nil {
			return fmt.Errorf("rsm: corrupt checkpoint at %d: %w", ckptIdx, err)
		}
		if err := r.loadState(st); err != nil {
			return fmt.Errorf("rsm: restoring checkpoint at %d: %w", ckptIdx, err)
		}
	}
	replayed, err := r.replay(func(fn func(index uint64, data []byte) error) error {
		return r.log.Replay(r.appliedIdx, fn)
	}, false)
	if err != nil {
		return err
	}
	r.bump(func(st *Stats) {
		st.RecoveryReplayed = replayed
		st.AppliedIndex = r.appliedIdx
	})
	if replayed > 0 || ckptState != nil {
		r.logf("recovered locally to applied index %d (checkpoint %d + %d replayed)",
			r.appliedIdx, ckptIdx, replayed)
	}
	return nil
}

// replay applies a contiguous run of log records — the local log's
// suffix at recovery, or a donor's suffix in a delta or hybrid
// transfer — through the conflict-keyed apply stage live rounds use.
// records streams (index, envelope wire bytes) in index order; ones at
// or below the applied index are skipped (a shared delta for several
// joiners, or a hybrid whose checkpoint already covers a prefix), and
// a gap is an error. fromDonor appends each record to the local log as
// well; recovered records are already there. Replay sends no client
// replies: at recovery the group is not yet joined, and a joiner
// installs its first view only after the transfer, so it is the
// output-mutex winner for none of these commands.
//
// Batches are capped at DedupLimit records: a ReqID logged twice
// implies more than DedupLimit fresh inserts between the two copies
// (the first entry had to be evicted before the retry could re-log),
// so a batch this size never holds a same-ReqID pair, and per-batch
// dedup inserts in index order keep the table's FIFO eviction
// identical to live execution.
func (r *Replica) replay(records func(fn func(index uint64, data []byte) error) error, fromDonor bool) (uint64, error) {
	batchMax := min(512, r.cfg.DedupLimit)
	batch := make([]*envelope, 0, batchMax)
	var replayed uint64
	apply := func() {
		if len(batch) == 0 {
			return
		}
		cmds := r.paBuf
		if cap(cmds) < len(batch) {
			cmds = make([]pendingApply, 0, len(batch)+64)
		}
		cmds = cmds[:0]
		fresh := 0
		for _, env := range batch {
			r.appliedIdx++
			cmds = append(cmds, pendingApply{env: env, index: r.appliedIdx, dupOf: -1, next: -1})
			if fromDonor && r.log != nil {
				env.ref()
				if err := r.log.AppendShared(r.appliedIdx, env.wire(), env); err != nil {
					env.release()
					r.logf("wal append at %d failed: %v", r.appliedIdx, err)
				} else {
					r.walDirty = true
					r.sinceCkpt++
				}
			}
			pa := &cmds[len(cmds)-1]
			if _, _, seen := r.dedup.lookup(env.ReqID); seen {
				pa.seen = true // logged before its dedup entry checkpointed
				continue
			}
			pa.cmd = Command{ReqID: env.ReqID, Payload: env.Payload, Origin: env.Origin, Client: env.Client}
			pa.key = r.service.ConflictKey(pa.cmd)
			fresh++
		}
		r.paBuf = cmds
		r.appliedPub.Store(r.appliedIdx)
		r.applySections(cmds)
		for i := range cmds {
			if pa := &cmds[i]; !pa.seen {
				r.dedupInsert(pa.env.ReqID, pa.resp, pa.index)
			}
		}
		if fresh > 0 {
			r.bump(func(st *Stats) {
				st.Applied += uint64(fresh)
				st.AppliedIndex = r.appliedIdx
			})
		}
		for _, env := range batch {
			env.release()
		}
		batch = batch[:0]
	}
	err := records(func(index uint64, data []byte) error {
		next := r.appliedIdx + uint64(len(batch)) + 1
		if index < next {
			return nil
		}
		if index != next {
			return fmt.Errorf("rsm: replay gap: record %d after applied %d", index, next-1)
		}
		env := getEnvelope()
		if err := r.decodeEnvelopeInto(env, data); err != nil {
			env.release()
			return fmt.Errorf("rsm: log record %d: %w", index, err)
		}
		batch = append(batch, env)
		replayed++
		if len(batch) == batchMax {
			apply()
		}
		return nil
	})
	if err != nil {
		for _, env := range batch {
			env.release()
		}
		return replayed, err
	}
	apply()
	return replayed, nil
}
