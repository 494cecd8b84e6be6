// Package rsm is the service-agnostic replicated-state-machine core
// of the symmetric active/active architecture: everything the paper's
// JOSHUA layer does that is independent of the service being
// replicated. A Replica owns the group communication event loop,
// applies totally ordered commands to a pluggable Service, keeps the
// exactly-once request-deduplication table (with FIFO eviction),
// enforces the output mutual exclusion (origin-replies or
// leader-replies) and non-primary output suppression, and carries the
// service state plus the dedup table through join-time state transfer.
//
// Every engine job has one code path; the ablations are knob values
// of that path, not separate code.
//
//   - Reads. Query commands do not change state and need no ordering:
//     Reply-classified datagrams are served by a pool of read workers
//     against a concurrency-safe service view, and every response
//     leaves through a bounded asynchronous reply queue so a slow
//     client socket never stalls command application. ReadOnLoop
//     serves them on the event loop instead. A leased ordered read
//     whose read index local apply has not reached yet is parked on
//     the event loop and answered at the first round boundary that
//     reaches it (TryLeasedRead).
//   - Writes. Each event-loop round appends its commands to the
//     write-ahead log, issues the group-commit fsync asynchronously
//     (wal.CommitTicket), then executes the round's batch while the
//     fsync is in flight — partitioned by Service.ConflictKey into
//     per-key runs so commands on disjoint conflict domains apply in
//     parallel on a bounded worker pool, while commands sharing a
//     domain stay in log order and an empty key is a global barrier.
//     A releaser goroutine releases each round's client replies in
//     order only once both its applies and its covering fsync have
//     completed — no client ever sees an acknowledgment the log could
//     still lose. ApplyOnLoop drops the pool and issues the commit
//     only after the round has applied, holding the loop until it
//     lands: the serial apply-then-blocking-commit ablation.
//   - Checkpoints and transfers. The loop captures a point-in-time
//     image of the service (ForkingService.Fork, or the Snapshot
//     bytes for a service without it) together with the dedup table;
//     a checkpointer goroutine frames and fsyncs checkpoints, and a
//     transfer goroutine answers a joiner with a log-suffix delta, the
//     newest checkpoint plus its suffix, or the full image.
//     CheckpointBlocking writes checkpoints on the loop instead.
//   - Replay. Local recovery and the suffix of a delta or hybrid
//     transfer run through one batched replay that feeds the same
//     conflict-keyed apply stage as live rounds.
//
// The paper's central claim is that this machinery is *external*: it
// wraps any deterministic service behind its command interface, with
// TORQUE merely the instance evaluated. Accordingly the PBS batch
// system (internal/joshua wires it up) and the key-value demo store
// (internal/rsm/kvstore) run on this identical engine; composing
// several services behind one Replica is what Mux is for.
package rsm

import (
	"context"
	"errors"
	"log"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"joshua/internal/codec"
	"joshua/internal/gcs"
	"joshua/internal/transport"
	"joshua/internal/wal"
)

// labelStage tags the calling goroutine with an rsm_stage pprof label,
// so CPU/heap/mutex profiles (jbench -cpuprofile etc.) attribute
// samples to pipeline stages instead of anonymous goroutines.
func labelStage(name string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("rsm_stage", name)))
}

// Command is one totally ordered command delivered to the Service.
// Every replica applies the same commands in the same order; Payload
// is opaque to the engine.
type Command struct {
	// ReqID is the client request identifier, the deduplication key.
	ReqID string
	// Payload is the service-defined command encoding (for request-
	// originated commands, the client datagram verbatim).
	Payload []byte
	// Origin is the replica that intercepted the command.
	Origin gcs.MemberID
	// Client is where the response goes; empty for internally
	// originated commands (no reply is sent).
	Client transport.Addr
}

// Service is the deterministic state machine being replicated.
// Snapshot and Restore are invoked from the Replica's event loop
// goroutine only. Apply is invoked from the event loop too — except
// that within one event-loop round, commands whose ConflictKeys are
// distinct and non-empty may be executed concurrently on apply-worker
// goroutines (Config.ApplyConcurrency), so Apply must be safe to call
// from multiple goroutines. Any state a Classifier's deferred Respond
// closure reads also runs on read-worker goroutines concurrently with
// Apply, and must be guarded (an RWMutex or a copy-on-write snapshot;
// see internal/pbs for the pattern).
type Service interface {
	// Apply executes one totally ordered command against local state
	// and returns the encoded response to relay to the client. A nil
	// return means the command produces no reply (internal commands,
	// malformed payloads); it is still recorded in the dedup table.
	Apply(cmd Command) []byte
	// ConflictKey names the conflict domain cmd belongs to. Two
	// commands with distinct non-empty keys must commute — applying
	// them in either order (or concurrently) yields the same final
	// state and the same responses — which lets the engine execute
	// them in parallel inside one totally ordered round. Commands
	// sharing a key are applied in log order. The empty string is a
	// global barrier: the command conflicts with everything and is
	// applied alone, in strict log order (the conservative default
	// for any operation that touches shared state). The key must be
	// a pure function of the command, so every replica partitions
	// the same totally ordered batch identically.
	ConflictKey(cmd Command) string
	// Snapshot encodes the full service state for join-time transfer.
	Snapshot() []byte
	// Restore replaces the service state from a Snapshot.
	Restore(state []byte) error
}

// ForkingService is an optional Service capability: a service that can
// capture a cheap copy-on-write image of its state and encode it later,
// off the event loop. Fork is invoked from the event loop only
// (serialized against Apply, exactly like Snapshot) and must return
// quickly — shallow-copy the top-level maps behind the service's
// read lock, nothing more. The returned closure encodes the captured
// image; it runs on an arbitrary goroutine, concurrent with subsequent
// Applies, and must produce bytes identical to what Snapshot() would
// have returned at fork time (the cross-replica determinism suites
// compare snapshots byte for byte, so a fork-encoded checkpoint and a
// loop-encoded one must be interchangeable).
//
// Checkpoints are framed and fsynced on a dedicated checkpointer
// goroutine and join-time state transfers are assembled off the loop
// whether or not the Service implements this; Fork only moves the
// state encoding off the loop too. A service without it is
// snapshotted on the loop at the capture point, so its checkpoints
// still stall the loop for the encode, a stall that grows with state
// size.
type ForkingService interface {
	Service
	// Fork captures the copy-on-write image (on the loop) and returns
	// its encoder (run anywhere, later).
	Fork() func() []byte
}

// Verdict tells the Replica what to do with one client datagram.
type Verdict int

const (
	// Ignore drops the datagram (malformed, not a request).
	Ignore Verdict = iota
	// Reply answers immediately with the classification's response —
	// local reads and protocol-level rejections, served without
	// ordering (and, with a read-worker pool, off the event loop).
	Reply
	// Replicate pushes the datagram through the total order; every
	// replica applies it and the output-mutex winner answers.
	Replicate
	// Park holds a leased ordered read on the event loop until local
	// apply reaches its ReadIndex, then answers it like Reply behind
	// every earlier round's durability; if the lease is lost first,
	// the read is broadcast like Replicate (ReqID required). See
	// TryLeasedRead.
	Park
)

// Classification is the Classifier's decision for one datagram.
type Classification struct {
	Verdict Verdict
	// ReqID is the deduplication key; required for Replicate.
	ReqID string
	// Response is the encoded reply, built inline on the receive
	// path. For anything heavier than a fixed rejection, prefer
	// Respond so the construction runs on a read worker.
	Response []byte
	// Respond, when non-nil, builds the reply lazily on a read-worker
	// goroutine (or on the event loop under the ReadOnLoop ablation).
	// It must be safe to call from any goroutine: it runs concurrently
	// with Service.Apply. It takes precedence over Response.
	Respond func() []byte
	// RespondEnc, when non-nil, builds the reply into a pooled encoder
	// (codec.GetEncoder); the replier returns the encoder to the pool
	// after the send, so the whole read reply path allocates nothing.
	// It receives the datagram payload back from the replica, so the
	// classifier can install one long-lived function (e.g. a bound
	// method) instead of allocating a capturing closure per request.
	// Same concurrency contract as Respond; takes precedence over both
	// Respond and Response.
	RespondEnc func(payload []byte) *codec.Encoder
	// ReadIndex is a Park read's target: the delivery count local
	// apply must reach before the read is served.
	ReadIndex uint64
}

// Classifier inspects one inbound client datagram and returns the
// verdict plus either a prebuilt response or a deferred Respond
// closure. It runs on the Replica's receive path — the intercept
// goroutine, concurrent with Service.Apply (the event loop only under
// the ReadOnLoop ablation) — so it must be safe to call from any
// goroutine and should stay cheap: parse the verdict and request ID,
// and push response construction into Respond.
type Classifier func(payload []byte) Classification

// OutputPolicy selects which replica relays command output back to
// the client — the "distributed mutual exclusion to ensure that
// output is delivered only once" of the paper. Both policies are
// deterministic given the totally ordered command and view streams.
type OutputPolicy int

const (
	// OriginReplies lets the replica that intercepted the command
	// answer the client. If it dies before answering, the client's
	// retry is served from the deduplication table by another replica.
	OriginReplies OutputPolicy = iota
	// LeaderReplies lets the lowest-ID member of the current view
	// answer every command, regardless of which replica intercepted
	// it.
	LeaderReplies
)

// ReadOnLoop disables the read-worker pool: Reply-classified
// datagrams and dedup-retry probes are served on the event-loop
// goroutine, serialized against command application — the original
// engine behaviour, kept as an ablation (and for single-core
// deployments where the pool buys nothing).
const ReadOnLoop = -1

// ApplyOnLoop runs the write path without an apply pool: each round
// applies its commands serially on the event loop, then issues the
// round's WAL group commit and holds the loop until it lands — the
// serial apply-then-blocking-commit ablation (mirroring ReadOnLoop).
const ApplyOnLoop = -1

// Config parameterizes a Replica.
type Config struct {
	// Self is this replica's member identity.
	Self gcs.MemberID
	// GroupEndpoint carries group communication; the replica owns it.
	GroupEndpoint transport.Endpoint
	// ClientEndpoint receives client request datagrams; the replica
	// owns it.
	ClientEndpoint transport.Endpoint
	// Peers maps every potential replica to its group address.
	Peers map[gcs.MemberID]transport.Addr

	// Group formation: exactly one of InitialMembers (static
	// bootstrap), Bootstrap (found a new group), or neither (join an
	// existing group through Peers).
	InitialMembers []gcs.MemberID
	Bootstrap      bool

	// PartitionPolicy is forwarded to the group layer. The default
	// FailStop matches the paper's fail-stop model.
	PartitionPolicy gcs.PartitionPolicy

	// Service is the replicated state machine. Required.
	Service Service
	// Classify parses client datagrams. Required.
	Classify Classifier

	// OutputPolicy defaults to OriginReplies.
	OutputPolicy OutputPolicy

	// DedupLimit bounds the request-deduplication table. Default 4096
	// entries.
	DedupLimit int

	// ReadConcurrency sizes the read-worker pool that serves
	// Reply-classified datagrams off the event loop (commands are
	// probed and broadcast by the intercept goroutine). Zero selects
	// the default, runtime.GOMAXPROCS(0); ReadOnLoop (any negative
	// value) disables the pool and serves every datagram on the event
	// loop, the pre-concurrent ablation.
	ReadConcurrency int
	// ReadQueueLen bounds the queue feeding the read workers. When it
	// fills, the intercept goroutine serves the datagram inline rather
	// than dropping it. Default 256.
	ReadQueueLen int
	// ReplyQueueLen bounds the asynchronous reply queue through which
	// every clientEP.Send flows (command output, local reads, dedup
	// hits, rejections). When it fills, the reply is dropped and
	// counted in Stats.ReplyQueueDrops; the client's retry recovers it
	// (reads re-execute, command responses come from the dedup
	// table). Default 1024.
	ReplyQueueLen int

	// ApplyConcurrency sizes the bounded worker pool that executes
	// non-conflicting per-key runs of one round's batch in parallel
	// (see Service.ConflictKey), and enables the pipelined write
	// path: the round's WAL fsync runs concurrently with execution,
	// and replies are released by durability watermark instead of an
	// end-of-round blocking commit. Zero selects the default,
	// runtime.GOMAXPROCS(0); 1 keeps execution serial while still
	// overlapping it with the fsync; ApplyOnLoop (any negative value)
	// also stops the overlap: the commit is issued after apply and
	// awaited on the loop.
	ApplyConcurrency int

	// LeaseDuration controls sequencer-granted read leases, which let
	// this replica serve linearizable (ordered) reads from local state
	// without a broadcast — see TryLeasedRead. Zero (the default)
	// enables leasing with the group layer's default duration;
	// positive values set the lease length explicitly; negative
	// disables leasing, the broadcast-ordered ablation. Enabling
	// leases forces safe delivery in the group layer (the grant is
	// only sound when an acked command is known received at every
	// holder); TuneGCS may still override that for ablations, which
	// simply stops grants and falls back to broadcast-ordered reads.
	LeaseDuration time.Duration

	// ReadCacheHits, when non-nil, reports the service's read-cache
	// hit counter; Stats folds it in so one Stats() call describes the
	// whole read path.
	ReadCacheHits func() uint64

	// RejectNotPrimary builds the response sent for a replicate-
	// classified request arriving at a replica outside the primary
	// component. Nil drops such requests silently (the client's retry
	// finds a primary replica by failover).
	RejectNotPrimary func(reqID string) []byte
	// RejectShutdown builds the response sent when the group layer
	// refuses a broadcast because the replica is shutting down. Nil
	// drops the request silently.
	RejectShutdown func(reqID string) []byte

	// DataDir, when set, enables the durability layer: every applied
	// command is written through a write-ahead log in this directory,
	// the full state is checkpointed every CheckpointEvery commands,
	// and Start recovers the local state (newest checkpoint + log
	// suffix) before the replica rejoins the group — so a restarted
	// head needs only an incremental (log-delta) state transfer, and a
	// whole-cluster restart loses nothing. Empty keeps the replica
	// purely in-memory (the paper's model).
	DataDir string
	// SyncPolicy selects the WAL fsync policy (wal.SyncAlways,
	// wal.SyncInterval, wal.SyncNone). Default wal.SyncInterval.
	SyncPolicy wal.SyncPolicy
	// SyncInterval is the fsync cadence under wal.SyncInterval; zero
	// uses the wal default.
	SyncInterval time.Duration
	// CheckpointEvery is the applied-command cadence between
	// checkpoints. Default 1024.
	CheckpointEvery uint64
	// CheckpointBlocking writes each checkpoint synchronously on the
	// event loop — the same encode, frame and fsync the checkpointer
	// goroutine runs, but holding the loop for its duration. It is the
	// stall ablation that `jbench -fig checkpoint` measures against;
	// join-time transfers stay off the loop either way.
	CheckpointBlocking bool
	// CheckpointCompress flate-compresses checkpoint files (level 1);
	// see wal.Options.Compress.
	CheckpointCompress bool
	// DeltaMaxBytes caps the WAL suffix served as an incremental
	// (delta) state transfer; a joiner lagging further behind gets a
	// checkpoint-plus-suffix or full transfer instead. Zero selects
	// the default, 64 MiB; negative means unlimited.
	DeltaMaxBytes int64
	// WALSegmentBytes overrides the log segment rotation size; zero
	// uses the wal default (tests shrink it to exercise rotation).
	WALSegmentBytes int64

	// TuneGCS, when non-nil, may adjust group communication timings
	// before the group process starts (tests and benchmarks shorten
	// them).
	TuneGCS func(*gcs.Config)

	// Logger receives diagnostics; nil disables logging.
	Logger *log.Logger
}

// Stats counts replica activity.
type Stats struct {
	Intercepted     uint64 // client requests received
	Applied         uint64 // replicated commands applied
	Replied         uint64 // responses sent to clients
	DedupHits       uint64 // retried requests answered from the table
	LocalReads      uint64 // Reply-classified datagrams served locally
	ReadCacheHits   uint64 // service read-cache hits (Config.ReadCacheHits)
	ReplyQueueDrops uint64 // replies dropped on a full reply queue
	Views           uint64 // views installed
	DedupEntries    int    // current deduplication-table size (gauge)
	ReadQueueDepth  int    // datagrams waiting for a read worker (gauge)
	ReadWorkers     int    // read-worker pool size (0 = on-loop)

	// Apply stage (FsyncOverlapNs stays zero under ApplyOnLoop).
	ApplyWorkers      int    // apply-worker pool size (0 = ApplyOnLoop, serial apply then blocking commit)
	ApplyParallelRuns uint64 // per-key runs executed on the worker pool
	ApplyBarriers     uint64 // commands applied alone as global barriers (empty ConflictKey)
	FsyncOverlapNs    uint64 // cumulative ns the WAL fsync ran concurrently with the apply stage
	DurabilityLagMax  uint64 // worst-case ns a round's replies waited on durability after apply finished

	// Durability layer (zero without Config.DataDir).
	AppliedIndex     uint64 // monotone count of commands applied locally
	RecoveryReplayed uint64 // log records replayed during local recovery
	WALAppends       uint64 // records appended to the log
	WALFsyncs        uint64 // fsync calls issued by the log
	WALBytes         uint64 // frame bytes appended to the log
	WALSegments      int    // on-disk log segments (gauge)
	CheckpointIndex  uint64 // newest durable checkpoint's applied index

	// Checkpointing (see ForkingService; Ckpt* are zero until the
	// first checkpoint completes).
	CheckpointFailures uint64 // failed checkpoint attempts (retried after backoff)
	CkptInflight       bool   // a background checkpoint is being written (gauge)
	CkptLastDurationNs uint64 // wall time of the newest completed checkpoint
	CkptBytes          uint64 // encoded size of the newest completed checkpoint

	// State transfer accounting (both directions).
	TransferInBytes      uint64 // transfer bytes received when joining
	TransferInFull       uint64 // full-snapshot transfers received
	TransferInDelta      uint64 // log-delta transfers received
	TransferInHybrid     uint64 // checkpoint+suffix transfers received
	TransferReplayed     uint64 // delta records applied while joining
	TransferOutFull      uint64 // full-snapshot transfers served
	TransferOutDelta     uint64 // log-delta transfers served
	TransferOutHybrid    uint64 // checkpoint+suffix transfers served off-loop
	TransferStreamChunks uint64 // sections streamed in off-loop transfers (checkpoint + suffix records)

	// Leased linearizable reads (see Config.LeaseDuration).
	LeaseHeld        bool   // a read lease is currently live (gauge)
	LeaseReads       uint64 // ordered reads served locally under a lease
	LeaseFallbacks   uint64 // ordered reads that fell back to the broadcast path
	LeaseRevocations uint64 // leases revoked by flush entry or view change

	// Memory pressure (runtime.MemStats-derived gauges, sampled by
	// Stats() so regressions are visible in operation, not just
	// benchmarks). AllocsPerCmd divides process-wide mallocs since
	// Start by commands applied — an upper bound on the engine's own
	// per-command garbage, comparable across runs of one workload.
	HeapAllocBytes uint64  // live heap bytes (gauge)
	GCPauseNs      uint64  // cumulative stop-the-world pause ns
	NumGC          uint32  // completed GC cycles
	AllocsPerCmd   float64 // process mallocs since Start per applied command
}

// readTask is one classified client datagram handed to a read worker,
// or a parked read handed to or from the event loop.
type readTask struct {
	from    transport.Addr
	payload []byte
	cls     Classification
}

// reply is one queued outbound response. When enc is non-nil, payload
// aliases enc's buffer and the replier releases enc to the codec pool
// once the send is done (the transport contract: Send does not retain
// the payload after it returns).
type reply struct {
	to      transport.Addr
	payload []byte
	enc     *codec.Encoder
}

// Replica is one symmetric active/active member: the generic
// replication engine of a head node.
type Replica struct {
	cfg      Config
	group    *gcs.Process
	clientEP transport.Endpoint
	service  Service

	// ckptQ feeds the checkpointer goroutine (nil without a log or
	// under CheckpointBlocking); ckptInflight gates it to one
	// outstanding background checkpoint (so the buffered-1 send below
	// never blocks the loop).
	ckptQ        chan ckptJob
	ckptInflight atomic.Bool
	// Checkpoint-failure backoff: ckptRetry marks a retry owed,
	// ckptRetryAt (unixnano) is the earliest moment it may run, and
	// ckptFails counts consecutive failures for the exponential step.
	// Without these a failed SaveCheckpoint would re-run the full
	// serialize+fsync every single round until the disk recovered.
	ckptRetry   atomic.Bool
	ckptRetryAt atomic.Int64
	ckptFails   atomic.Uint32

	done chan struct{}
	once sync.Once

	// ready is closed when the first view is installed (group formed
	// or join complete).
	ready     chan struct{}
	readyOnce sync.Once

	// dedup maps request IDs to the encoded response each replica
	// computed when the command was applied; it makes client retries
	// idempotent. It is sharded behind RWMutexes so read workers can
	// probe retries concurrently with the loop's inserts. Replicated:
	// every replica builds the same table from the same command
	// stream.
	dedup *dedupTable

	// readQ feeds the read-worker pool; nil under ReadOnLoop.
	readQ chan readTask
	// parkQ hands Park reads from the intercept goroutine to the event
	// loop, and unparkQ hands the ones whose lease lapsed back to it
	// for the broadcast; both nil under ReadOnLoop, which broadcasts a
	// Park read at once. Both are sized like readQ: they absorb the
	// same bursts of reads while the loop is busy applying a round.
	parkQ   chan readTask
	unparkQ chan readTask
	// replyQ carries every outbound client response; a dedicated
	// replier goroutine drains it so no protocol goroutine ever blocks
	// in clientEP.Send.
	replyQ chan reply

	// applyConc is the resolved apply-pool size; 0 selects the
	// ApplyOnLoop ablation (serial apply, then a blocking commit).
	applyConc int
	// applyQ feeds the persistent apply workers one per-key run at a
	// time (created only when applyConc > 1). The event loop is the
	// sole sender and closes it on exit, so every queued run is drained
	// before the workers stop and applyWG.Wait can never hang.
	applyQ  chan applyRun
	applyWG sync.WaitGroup
	// relQ feeds the releaser goroutine one releaseBatch per round, in
	// round order.
	relQ chan releaseBatch
	// envFree / replyFree recycle the per-round envelope and reply
	// slices between the loop (producer) and the releaser (consumer),
	// so steady-state rounds allocate no slice headers.
	envFree   chan []*envelope
	replyFree chan []reply

	// durableIdx is the highest applied index known covered by an
	// fsync (or by a durable checkpoint); read workers consult it so a
	// dedup-table retry is never answered before the command it
	// acknowledges is durable. Meaningless (and unused) without a log.
	durableIdx atomic.Uint64
	// appliedPub publishes appliedIdx for the leased-read durability
	// gate. It is stored *before* a command executes (conservative:
	// the published value is never behind the state a reader can
	// observe), so TryLeasedRead's durableIdx >= appliedPub check
	// never passes while applied state outruns the fsync watermark.
	appliedPub atomic.Uint64
	// delivHandled counts group deliveries this replica has finished
	// applying; compared against the group layer's read index so a
	// leased read never runs ahead of a delivery it must observe.
	delivHandled atomic.Uint64
	// Leased-read outcome counters (TryLeasedRead).
	leaseReads     atomic.Uint64
	leaseFallbacks atomic.Uint64

	// --- owned by the run loop ---
	view gcs.View
	// parked holds Park reads whose read index local apply has not
	// reached yet.
	parked []readTask
	// originIntern / clientIntern canonicalize the member IDs and
	// client addresses decoded out of envelopes (see internTable).
	originIntern internTable
	clientIntern internTable
	// batchBuf collects one pipelined round's envelopes; paBuf is the
	// round's pendingApply slab; posIdx maps ReqID → first copy this
	// round; runHeads/runTails/runIdx build the per-key runs. All are
	// reused across rounds.
	batchBuf []*envelope
	paBuf    []pendingApply
	posIdx   map[string]int
	runHeads []int32
	runTails []int32
	runIdx   map[string]int
	// appliedIdx numbers applied commands 1,2,3… across the replica's
	// whole life (unlike gcs sequence numbers, which reset per view).
	// It is the WAL record index, the checkpoint position, and the
	// version a restarted head advertises when rejoining.
	appliedIdx uint64
	// walDirty marks appends awaiting the round's group commit;
	// sinceCkpt counts appends since the last checkpoint.
	walDirty  bool
	sinceCkpt uint64

	// log is the durability layer; nil without Config.DataDir.
	log *wal.Log

	// mallocs0 is the process malloc count at Start, the baseline for
	// the Stats.AllocsPerCmd gauge.
	mallocs0 uint64

	statsMu sync.Mutex
	stats   Stats
}

// Start creates and runs a replica. It is accepting client requests
// once Ready() is closed.
func Start(cfg Config) (*Replica, error) {
	if cfg.Service == nil {
		return nil, errors.New("rsm: Config.Service required")
	}
	if cfg.Classify == nil {
		return nil, errors.New("rsm: Config.Classify required")
	}
	if cfg.ClientEndpoint == nil {
		return nil, errors.New("rsm: Config.ClientEndpoint required")
	}
	if cfg.DedupLimit <= 0 {
		cfg.DedupLimit = 4096
	}
	if cfg.ReadConcurrency == 0 {
		cfg.ReadConcurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.ReadConcurrency < 0 {
		cfg.ReadConcurrency = 0 // ReadOnLoop ablation
	}
	if cfg.ReadQueueLen <= 0 {
		cfg.ReadQueueLen = 256
	}
	if cfg.ReplyQueueLen <= 0 {
		cfg.ReplyQueueLen = 1024
	}
	if cfg.ApplyConcurrency == 0 {
		cfg.ApplyConcurrency = runtime.GOMAXPROCS(0)
	}
	if cfg.ApplyConcurrency < 0 {
		cfg.ApplyConcurrency = 0 // ApplyOnLoop ablation
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1024
	}
	if cfg.DeltaMaxBytes == 0 {
		cfg.DeltaMaxBytes = 64 << 20
	}

	r := &Replica{
		cfg:       cfg,
		clientEP:  cfg.ClientEndpoint,
		service:   cfg.Service,
		done:      make(chan struct{}),
		ready:     make(chan struct{}),
		dedup:     newDedupTable(cfg.DedupLimit),
		replyQ:    make(chan reply, cfg.ReplyQueueLen),
		applyConc: cfg.ApplyConcurrency,
	}
	r.stats.ReadWorkers = cfg.ReadConcurrency
	r.stats.ApplyWorkers = cfg.ApplyConcurrency

	// The apply workers start before local recovery so replay can run
	// post-checkpoint log records through the same conflict-keyed pool
	// live rounds use; failure paths below close applyQ to let them
	// drain and exit (run() owns the close once it starts).
	if r.applyConc > 1 {
		r.applyQ = make(chan applyRun, r.applyConc*2)
		for i := 0; i < r.applyConc; i++ {
			go r.applyWorker()
		}
	}
	fail := func(err error) (*Replica, error) {
		if r.applyQ != nil {
			close(r.applyQ)
		}
		if r.log != nil {
			r.log.Close()
		}
		return nil, err
	}

	// Local recovery runs before the group is joined: restore the
	// newest checkpoint, replay the log suffix through the dedup
	// table, and advertise the recovered applied index so peers can
	// serve an incremental state transfer.
	if cfg.DataDir != "" {
		l, err := wal.Open(wal.Options{
			Dir:          cfg.DataDir,
			Policy:       cfg.SyncPolicy,
			Interval:     cfg.SyncInterval,
			SegmentBytes: cfg.WALSegmentBytes,
			Compress:     cfg.CheckpointCompress,
			Logger:       cfg.Logger,
		})
		if err != nil {
			return fail(err)
		}
		r.log = l
		if err := r.recoverLocal(); err != nil {
			return fail(err)
		}
		// Everything recovered from disk is, by definition, durable.
		r.durableIdx.Store(r.appliedIdx)
	}
	r.appliedPub.Store(r.appliedIdx)

	gcfg := gcs.Config{
		Self:            cfg.Self,
		Endpoint:        cfg.GroupEndpoint,
		Peers:           cfg.Peers,
		InitialMembers:  cfg.InitialMembers,
		Bootstrap:       cfg.Bootstrap,
		PartitionPolicy: cfg.PartitionPolicy,
		StateSince:      r.appliedIdx,
		LeaseDuration:   cfg.LeaseDuration,
		Logger:          cfg.Logger,
	}
	if cfg.LeaseDuration >= 0 {
		// Leases are only sound under safe delivery: a client ack then
		// implies every lease holder already received the command.
		// TuneGCS may still clear this for ablations — grants simply
		// cease and ordered reads fall back to the broadcast path.
		gcfg.SafeDelivery = true
	}
	if cfg.TuneGCS != nil {
		cfg.TuneGCS(&gcfg)
	}
	group, err := gcs.Start(gcfg)
	if err != nil {
		return fail(err)
	}
	r.group = group

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs0 = ms.Mallocs

	go r.replier()
	if cfg.ReadConcurrency > 0 {
		r.readQ = make(chan readTask, cfg.ReadQueueLen)
		r.parkQ = make(chan readTask, cfg.ReadQueueLen)
		r.unparkQ = make(chan readTask, cfg.ReadQueueLen)
		for i := 0; i < cfg.ReadConcurrency; i++ {
			go r.readWorker()
		}
		go r.intercept()
	}
	r.relQ = make(chan releaseBatch, 64)
	r.envFree = make(chan []*envelope, 4)
	r.replyFree = make(chan []reply, 4)
	go r.releaser()
	if r.log != nil && !cfg.CheckpointBlocking {
		r.ckptQ = make(chan ckptJob, 1)
		go r.checkpointer()
	}
	go r.run()
	return r, nil
}

// Ready is closed once the replica has joined (or formed) the group
// and installed its first view.
func (r *Replica) Ready() <-chan struct{} { return r.ready }

// Self returns the replica's member identity.
func (r *Replica) Self() gcs.MemberID { return r.cfg.Self }

// View returns the most recent group view.
func (r *Replica) View() gcs.View { return r.group.View() }

// GroupStats returns the group communication layer's counters.
func (r *Replica) GroupStats() gcs.Stats { return r.group.Stats() }

// TryLeasedRead decides how an ordered (linearizable) read is served,
// returning Reply, Park or Replicate (Raft's ReadIndex, served under
// a sequencer-granted lease):
//
//   - Replicate: the group layer holds no live read lease
//     (gcs.Process.LeasedReadIndex). The caller broadcasts the read
//     through the total order exactly as before leases existed.
//   - Reply: the lease is live, this replica has applied every
//     delivery up to the read index (delivHandled), and, with a WAL,
//     applied state is covered by the fsync watermark (durableIdx vs
//     appliedPub, which publishes *before* execution). The read may
//     be served locally now, on a read worker.
//   - Park: the lease is live but apply or durability trails. The
//     returned index is the read's target; the Park classification
//     waits on the event loop until delivHandled reaches it (see
//     serveParked).
//
// Leases are only granted under safe delivery, and the read index is
// published before the member acknowledges a receipt, so any command
// a client was acknowledged for before the read arrived lies at or
// below the index. The load order resolves every race toward waiting:
// the index first, then the handled count, then the durability
// watermark before the published applied index. Reply and Replicate
// are counted here; a parked read is counted where it ends.
func (r *Replica) TryLeasedRead() (Verdict, uint64) {
	target, ok := r.group.LeasedReadIndex()
	if !ok {
		r.leaseFallbacks.Add(1)
		return Replicate, 0
	}
	if r.delivHandled.Load() >= target &&
		(r.log == nil || r.durableIdx.Load() >= r.appliedPub.Load()) {
		r.leaseReads.Add(1)
		return Reply, 0
	}
	return Park, target
}

// Stats returns a snapshot of the replica counters.
func (r *Replica) Stats() Stats {
	r.statsMu.Lock()
	st := r.stats
	r.statsMu.Unlock()
	st.LeaseHeld = r.group.LeaseValid()
	st.LeaseReads = r.leaseReads.Load()
	st.LeaseFallbacks = r.leaseFallbacks.Load()
	st.LeaseRevocations = r.group.Stats().LeaseRevocations
	if r.readQ != nil {
		st.ReadQueueDepth = len(r.readQ)
	}
	if r.cfg.ReadCacheHits != nil {
		st.ReadCacheHits = r.cfg.ReadCacheHits()
	}
	if r.log != nil {
		ws := r.log.Stats()
		st.WALAppends = ws.Appends
		st.WALFsyncs = ws.Fsyncs
		st.WALBytes = ws.Bytes
		st.WALSegments = ws.Segments
		st.CheckpointIndex = ws.CheckpointIndex
		st.CkptInflight = r.ckptInflight.Load()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.HeapAllocBytes = ms.HeapAlloc
	st.GCPauseNs = ms.PauseTotalNs
	st.NumGC = ms.NumGC
	if st.Applied > 0 {
		st.AllocsPerCmd = float64(ms.Mallocs-r.mallocs0) / float64(st.Applied)
	}
	return st
}

// Propose replicates an internally originated command (one with no
// client to answer) through the total order. The request ID must be
// derived deterministically from the command contents so that copies
// proposed by several replicas collapse in the deduplication table.
func (r *Replica) Propose(reqID string, payload []byte) error {
	enc := codec.GetEncoder(64 + len(reqID) + len(payload))
	encodeEnvelopeTo(enc, reqID, r.cfg.Self, "", payload)
	err := r.group.Broadcast(enc.Bytes())
	enc.Release() // Broadcast copies the payload before queueing
	return err
}

// Leave announces a voluntary departure (the paper handles it as a
// forced failure) and shuts the replica down.
func (r *Replica) Leave() {
	r.group.Leave()
	r.Close()
}

// Close stops the replica immediately, simulating a crash. The
// Service is not closed; its owner remains responsible for it.
func (r *Replica) Close() {
	r.once.Do(func() {
		close(r.done)
		r.group.Close()
		r.clientEP.Close()
		if r.log != nil {
			// Flush what the group-commit policy already admitted;
			// anything beyond that is exactly what a crash loses.
			r.log.Close()
		}
	})
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf("[rsm %s] "+format, append([]any{r.cfg.Self}, args...)...)
	}
}

func (r *Replica) bump(f func(*Stats)) {
	r.statsMu.Lock()
	f(&r.stats)
	r.statsMu.Unlock()
}
