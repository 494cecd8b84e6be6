package rsm

import (
	"fmt"

	"joshua/internal/gcs"
)

// deltaMax resolves Config.DeltaMaxBytes for wal.ReadSince (whose 0
// means unlimited, spelled negative in the config).
func (r *Replica) deltaMax() int {
	if r.cfg.DeltaMaxBytes < 0 {
		return 0
	}
	return int(r.cfg.DeltaMaxBytes)
}

// tryDeltaTransfer serves the log suffix (since, applied] when the WAL
// fully retains it within the configured size cap. Concurrency-safe
// (the log guards itself); applied is the flush point, frozen for the
// duration of the transfer.
func (r *Replica) tryDeltaTransfer(since, applied uint64) ([]byte, bool) {
	if r.log == nil || since == 0 || since > applied {
		return nil, false
	}
	recs, ok := r.log.ReadSince(since, r.deltaMax())
	if !ok {
		return nil, false
	}
	drecs := make([]deltaRecord, len(recs))
	for i, rec := range recs {
		drecs[i] = deltaRecord{Index: rec.Index, Data: rec.Data}
	}
	out := frameTransfer(transferDelta, encodeDelta(applied, drecs))
	r.bump(func(st *Stats) { st.TransferOutDelta++ })
	r.logf("serving delta transfer: %d records after index %d", len(recs), since)
	return out, true
}

// buildTransfer answers a join-time snapshot request off the event
// loop; the loop only captured the image (job). The group's flush
// protocol blocks quiescent until the reply (or its timeout), so
// appliedIdx cannot advance before Reply and a late reply from this
// goroutine is the intended contract. The background checkpointer may
// prune WAL segments and checkpoint generations concurrently, so each
// strategy validates and falls through: the bounded log-suffix delta
// first, then the newest durable checkpoint file plus the WAL suffix
// after it (retried against concurrent pruning), and finally a full
// transfer encoded from the captured image — which needs no disk state
// at all and therefore cannot lose a race.
func (r *Replica) buildTransfer(ev gcs.SnapshotRequestEvent, job ckptJob) {
	labelStage("transfer_builder")
	if r.log != nil {
		if out, ok := r.tryDeltaTransfer(ev.Since, job.index); ok {
			ev.Reply(out)
			return
		}
		for attempt := 0; attempt < 3; attempt++ {
			out, retry := r.tryHybridTransfer(job.index)
			if out != nil {
				ev.Reply(out)
				return
			}
			if !retry {
				break
			}
		}
	}
	r.bump(func(s *Stats) { s.TransferOutFull++ })
	r.logf("serving full transfer at index %d", job.index)
	ev.Reply(frameTransfer(transferFull, job.state().encode()))
}

// tryHybridTransfer reads the newest durable checkpoint and the WAL
// suffix (ckptIdx, applied] and packs them as one transfer. A nil
// result with retry=true means a concurrent checkpoint pruned state
// beneath the read; retry=false means the strategy cannot apply (no
// checkpoint yet, or one past the flush point).
func (r *Replica) tryHybridTransfer(applied uint64) (out []byte, retry bool) {
	ckptIdx, state := r.log.Checkpoint()
	if state == nil || ckptIdx > applied {
		return nil, false
	}
	var drecs []deltaRecord
	if ckptIdx < applied {
		recs, ok := r.log.ReadSince(ckptIdx, 0)
		if !ok {
			return nil, true // pruned beneath us; rescan for the newer checkpoint
		}
		drecs = make([]deltaRecord, 0, len(recs))
		for _, rec := range recs {
			if rec.Index > applied {
				break
			}
			drecs = append(drecs, deltaRecord{Index: rec.Index, Data: rec.Data})
		}
		if ckptIdx+uint64(len(drecs)) != applied {
			return nil, true
		}
	}
	out = frameTransfer(transferHybrid, encodeHybrid(state, applied, drecs))
	r.bump(func(st *Stats) {
		st.TransferOutHybrid++
		st.TransferStreamChunks += uint64(len(drecs)) + 1
	})
	r.logf("serving hybrid transfer: checkpoint %d + %d records to %d", ckptIdx, len(drecs), applied)
	return out, false
}

// restoreTransfer applies a join-time state transfer. A full transfer
// replaces everything; a hybrid installs the donor's checkpoint the
// same way (both reset the local log: the discarded local suffix may
// diverge from the group's history). A delta or a hybrid's suffix
// then replays the donor's log records after our applied index, which
// also writes them to our own log.
func (r *Replica) restoreTransfer(b []byte) error {
	kind, payload, err := unframeTransfer(b)
	if err != nil {
		return err
	}
	r.bump(func(st *Stats) { st.TransferInBytes += uint64(len(b)) })
	var donorApplied uint64
	var recs []deltaRecord
	switch kind {
	case transferDelta:
		if donorApplied, recs, err = decodeDelta(payload); err != nil {
			return err
		}
	case transferHybrid:
		var state []byte
		if state, donorApplied, recs, err = decodeHybrid(payload); err != nil {
			return err
		}
		if err := r.installState(state); err != nil {
			return err
		}
	default: // transferFull
		if err := r.installState(payload); err != nil {
			return err
		}
		r.bump(func(s *Stats) { s.TransferInFull++ })
		return nil
	}
	replayed, err := r.replay(func(fn func(index uint64, data []byte) error) error {
		for _, rec := range recs {
			if err := fn(rec.Index, rec.Data); err != nil {
				return err
			}
		}
		return nil
	}, true)
	if err != nil {
		return err
	}
	if r.appliedIdx != donorApplied {
		return fmt.Errorf("rsm: delta ends at %d, donor applied %d", r.appliedIdx, donorApplied)
	}
	r.bump(func(s *Stats) {
		s.TransferReplayed += replayed
		if kind == transferHybrid {
			s.TransferInHybrid++
			s.TransferStreamChunks += replayed + 1
		} else {
			s.TransferInDelta++
		}
	})
	return nil
}

// installState replaces the whole replica state with an encoded
// replicaState from a donor and makes it the local log's base.
func (r *Replica) installState(state []byte) error {
	st, err := decodeReplicaState(state)
	if err != nil {
		return err
	}
	if err := r.loadState(st); err != nil {
		return err
	}
	r.sinceCkpt = 0
	r.walDirty = false
	if r.log != nil {
		if err := r.log.Reset(st.Applied, state); err != nil {
			r.logf("wal reset after state transfer failed: %v", err)
		}
	}
	return nil
}
