package rsm

import (
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
)

// run is the replica's event loop. With the read-worker pool enabled
// the intercept goroutine owns the client endpoint and this loop
// handles group events only, so a slow Apply never delays datagram
// interception; under ReadOnLoop client datagrams are handled here,
// serialized against command application (the ablation's contract).
func (r *Replica) run() {
	labelStage("event_loop")
	if r.applyQ != nil {
		// The loop is the sole sender: closing here lets the apply
		// workers drain every queued run and exit.
		defer close(r.applyQ)
	}
	events := r.group.Events()
	var recv <-chan transport.Message // nil when intercept owns the endpoint
	if r.readQ == nil {
		recv = r.clientEP.Recv()
	}
	for {
		select {
		case <-r.done:
			return
		case e, ok := <-events:
			if !ok {
				return
			}
			r.runPipelinedRound(e, events)
		case t := <-r.parkQ:
			r.parked = append(r.parked, t)
		case dg, ok := <-recv:
			if !ok {
				return
			}
			r.handleClientDatagram(dg)
		}
		r.serveParked()
	}
}

// serveParked settles the parked reads at a round boundary. If the
// lease has lapsed every one of them goes back to the intercept
// goroutine for the broadcast; otherwise each read whose index local
// apply has reached is answered here. Its reply joins the releaser's
// FIFO as a batch of its own, behind every earlier round's durability
// ticket, so it never exposes state the log could still lose.
func (r *Replica) serveParked() {
	if len(r.parked) == 0 {
		return
	}
	if !r.group.LeaseValid() {
		r.unparkAll()
		return
	}
	handled := r.delivHandled.Load()
	waiting := r.parked[:0]
	var replies []reply
	for _, t := range r.parked {
		if handled < t.cls.ReadIndex {
			waiting = append(waiting, t)
			continue
		}
		r.leaseReads.Add(1)
		if rep, ok := readReply(t.from, t.payload, t.cls); ok {
			if replies == nil {
				replies = r.takeReplySlice()
			}
			replies = append(replies, rep)
		}
	}
	clear(r.parked[len(waiting):])
	r.parked = waiting
	r.dispatch(releaseBatch{replies: replies})
}

// unparkAll hands every parked read to the intercept goroutine, which
// broadcasts it: the loop itself never blocks in Broadcast.
func (r *Replica) unparkAll() {
	for i, t := range r.parked {
		r.leaseFallbacks.Add(1)
		select {
		case r.unparkQ <- t:
		case <-r.done:
		}
		r.parked[i] = readTask{}
	}
	r.parked = r.parked[:0]
}

// maxEventsPerRound bounds one commit round so a firehose of
// deliveries cannot starve client-datagram handling under ReadOnLoop.
const maxEventsPerRound = 256

// runPipelinedRound runs one event-loop round: deliveries are
// collected into a batch and executed through applyBatch, while
// control events (views, state transfer) act as ordering points —
// everything delivered before them is applied first.
func (r *Replica) runPipelinedRound(first gcs.Event, events <-chan gcs.Event) {
	batch := r.batchBuf[:0]
	flush := func() {
		r.applyBatch(batch)
		batch = batch[:0]
	}
	handle := func(e gcs.Event) {
		if ev, ok := e.(gcs.DeliverEvent); ok {
			env := getEnvelope()
			if err := r.decodeEnvelopeInto(env, ev.Payload); err != nil {
				env.release()
				r.logf("dropping malformed replicated command: %v", err)
				r.delivHandled.Add(1)
				return
			}
			batch = append(batch, env)
			return
		}
		flush()
		r.handleGroupEvent(e)
	}
	handle(first)
	for i := 1; i < maxEventsPerRound; i++ {
		select {
		case e, ok := <-events:
			if !ok {
				flush()
				r.batchBuf = batch[:0]
				return
			}
			handle(e)
		default:
			flush()
			r.batchBuf = batch[:0]
			return
		}
	}
	flush()
	r.batchBuf = batch[:0]
}

// intercept drains client datagrams on a dedicated goroutine so the
// classify/dispatch step runs concurrently with command application on
// the event loop.
func (r *Replica) intercept() {
	labelStage("intercept")
	recv := r.clientEP.Recv()
	for {
		select {
		case <-r.done:
			return
		case dg, ok := <-recv:
			if !ok {
				return
			}
			r.handleClientDatagram(dg)
		case t := <-r.unparkQ:
			r.serveRequest(t.from, t.payload, t.cls)
		}
	}
}

func (r *Replica) handleGroupEvent(e gcs.Event) {
	switch ev := e.(type) {
	case gcs.ViewEvent:
		// Installing a view revoked the lease every parked read was
		// classified under, even if the new sequencer has granted a
		// fresh one already; an old-view read index may count
		// sequences the flush never delivered, so waiting on it could
		// stall an idle head.
		r.unparkAll()
		r.view = ev.View
		r.bump(func(st *Stats) { st.Views++ })
		r.readyOnce.Do(func() { close(r.ready) })
		r.logf("view %d members=%v primary=%v", ev.View.ID, ev.View.Members, ev.View.Primary)
	case gcs.SnapshotRequestEvent:
		go r.buildTransfer(ev, r.capture())
	case gcs.StateTransferEvent:
		if err := r.restoreTransfer(ev.State); err != nil {
			r.logf("state transfer failed: %v", err)
		} else {
			r.logf("state transfer applied (%d bytes, now at index %d)", len(ev.State), r.appliedIdx)
		}
		// Donor records replayed into the local log become durable
		// through the releaser, like a round's appends.
		if tk, maxIndex := r.commitTicket(); tk != nil {
			now := time.Now()
			r.dispatch(releaseBatch{tk: tk, maxIndex: maxIndex, t0: now, applyEnd: now})
		}
	}
}

// handleClientDatagram intercepts one client request: the cheap
// verdict/ReqID parse runs here on the receive path (the intercept
// goroutine, or the event loop under ReadOnLoop). Reads go to the
// read-worker pool for response construction; if the pool is
// saturated (or disabled by ReadOnLoop) they are served inline so
// nothing is ever lost to a full queue. Parked reads go to the event
// loop; if its queue is full (or under ReadOnLoop) they are broadcast
// instead. Commands — the dedup-retry probe and the broadcast — are
// always served inline by the goroutine that owns the endpoint, so
// one client's commands enter the total order in the order they
// arrived.
func (r *Replica) handleClientDatagram(dg transport.Message) {
	cls := r.cfg.Classify(dg.Payload)
	if cls.Verdict == Ignore {
		return
	}
	r.bump(func(st *Stats) { st.Intercepted++ })

	t := readTask{from: dg.From, payload: dg.Payload, cls: cls}
	switch {
	case r.readQ != nil && cls.Verdict == Reply:
		select {
		case r.readQ <- t:
			return
		default: // pool saturated: degrade to inline service
		}
	case cls.Verdict == Park:
		select {
		case r.parkQ <- t: // nil under ReadOnLoop: never ready
			return
		default:
			r.leaseFallbacks.Add(1)
		}
	}
	r.serveRequest(dg.From, dg.Payload, cls)
}

// readWorker serves classified datagrams off the event loop.
func (r *Replica) readWorker() {
	labelStage("read_worker")
	for {
		select {
		case <-r.done:
			return
		case t := <-r.readQ:
			r.serveRequest(t.from, t.payload, t.cls)
		}
	}
}

// serveRequest finishes one classified datagram. It runs on a read
// worker, the intercept goroutine, or the event loop under ReadOnLoop,
// so it may touch only concurrency-safe state: the sharded dedup table,
// the group layer's view, and whatever the Respond closure guards.
func (r *Replica) serveRequest(from transport.Addr, payload []byte, cls Classification) {
	if cls.Verdict == Reply {
		r.bump(func(st *Stats) { st.LocalReads++ })
		if rep, ok := readReply(from, payload, cls); ok {
			r.sendAsync(rep)
		}
		return
	}

	// Retried request already applied? Answer from the table without
	// re-executing (exactly-once semantics across replica failures) —
	// but only once the command's index is covered by the durability
	// watermark: a retry must never be acknowledged ahead of the
	// fsync that makes the command crash-proof. A pre-durability
	// retry falls through to the broadcast path; the copy collapses
	// in the table and its reply is released by the normal
	// durability-gated path.
	if idx, hasResp, ok := r.dedup.lookup(cls.ReqID); ok {
		if r.log == nil || idx <= r.durableIdx.Load() {
			if hasResp {
				// fetch copies the recorded response under the shard
				// lock into a pooled encoder the reply path owns. A
				// concurrent eviction between lookup and fetch just
				// drops the answer; the client's next retry recovers.
				if enc, _, ok2 := r.dedup.fetch(cls.ReqID); ok2 && enc != nil {
					r.bump(func(st *Stats) { st.DedupHits++ })
					r.sendAsync(reply{to: from, payload: enc.Bytes(), enc: enc})
				}
			}
			return
		}
	}

	if !r.group.View().Primary {
		if r.cfg.RejectNotPrimary != nil {
			r.sendAsync(reply{to: from, payload: r.cfg.RejectNotPrimary(cls.ReqID)})
		}
		return
	}

	enc := codec.GetEncoder(64 + len(cls.ReqID) + len(payload))
	encodeEnvelopeTo(enc, cls.ReqID, r.cfg.Self, from, payload)
	err := r.group.Broadcast(enc.Bytes())
	enc.Release() // Broadcast copies the payload before queueing
	if err != nil {
		if r.cfg.RejectShutdown != nil {
			r.sendAsync(reply{to: from, payload: r.cfg.RejectShutdown(cls.ReqID)})
		}
	}
}

// readReply builds the response for a read-classified datagram; false
// when the responder produced nothing.
func readReply(to transport.Addr, payload []byte, cls Classification) (reply, bool) {
	if cls.RespondEnc != nil {
		enc := cls.RespondEnc(payload)
		if enc == nil {
			return reply{}, false
		}
		return reply{to: to, payload: enc.Bytes(), enc: enc}, true
	}
	resp := cls.Response
	if cls.Respond != nil {
		resp = cls.Respond()
	}
	return reply{to: to, payload: resp}, true
}

// sendAsync queues one response for the replier goroutine, which
// releases a pooled encoder after the send. A full queue drops the
// reply (releasing its encoder) — the bounded-buffer backpressure
// policy: a slow or dead client socket must never stall command
// application, and the client's retry recovers the answer (reads
// re-execute, and command responses are replayed from the
// deduplication table).
func (r *Replica) sendAsync(rep reply) {
	select {
	case r.replyQ <- rep:
	default:
		if rep.enc != nil {
			rep.enc.Release()
		}
		r.bump(func(st *Stats) { st.ReplyQueueDrops++ })
	}
}

// replier drains the reply queue onto the client endpoint.
func (r *Replica) replier() {
	labelStage("replier")
	for {
		select {
		case <-r.done:
			return
		case rep := <-r.replyQ:
			if r.clientEP.Send(rep.to, rep.payload) == nil {
				r.bump(func(st *Stats) { st.Replied++ })
			}
			if rep.enc != nil {
				rep.enc.Release()
			}
		}
	}
}

// shouldReply implements the output mutual exclusion.
func (r *Replica) shouldReply(env *envelope) bool {
	switch r.cfg.OutputPolicy {
	case LeaderReplies:
		return len(r.view.Members) > 0 && r.view.Members[0] == r.cfg.Self
	default: // OriginReplies
		return env.Origin == r.cfg.Self
	}
}
