// Package fabric distributes one BER sweep across machines: a
// coordinator hands out the shard plan of an experiment.Frontier as
// lease-based shard ranges over HTTP, and merges worker-streamed
// per-block logical-error counts through that frontier — the exact
// commit/early-stopping core a single-machine run uses — into the
// fingerprint-keyed checkpoint ledger, through the same ledger policy
// (checkpoint.Ledger) as a single-machine sweep. Workers count shards
// on experiment.BlockRunner, the engine's own shard path, stream
// results with CRC32-C framing, heartbeat their leases, and resume
// cleanly after a disconnect.
//
// Bit-identity is the design invariant, not an aspiration: per-block
// counts are deterministic functions of (circuit, base seed, block
// index), shard leases are pure scheduling, and the frontier evaluates
// the stop criteria only on the committed prefix — so the merged result
// is byte-identical to experiment.Run for any worker population, any
// join/leave order, and any lease-expiry schedule. The identity and
// chaos suites in this package enforce exactly that.
//
// Everything result-affecting is wall-clock-free (fpnvet's leaseguard
// check enforces it): lease expiry flows through an injectable clock
// and is evaluated lazily on lease traffic, never from background
// timers, so chaos tests can drive any expiry schedule
// deterministically. An expired lease only ever causes a shard to be
// recomputed — recomputation is idempotent by determinism.
//
// Protocol (JSON over HTTP, stdlib only):
//
//	GET  /v1/job        → {"status":"job","fingerprint":…,"config":…,"lease_ttl_ms":…,"epoch":E}
//	                      | {"status":"idle"} | {"status":"shutdown"}
//	POST /v1/lease      ?job=FP&worker=ID
//	                    → {"status":"lease","lease":…,"shard":…,"first_block":…,"blocks":…,
//	                       "epoch":E[,"fallback":true]}
//	                      | {"status":"wait"} | {"status":"done"} | {"status":"idle"}
//	POST /v1/heartbeat  ?job=FP&lease=N[&epoch=E] → {"status":"ok"} | {"status":"expired"}
//	                      | {"status":"stale-epoch"}
//	POST /v1/complete   ?job=FP&shard=N&lease=N[&epoch=E][&dec=NAME], body =
//	                    CRC-framed count lines + trailer → {"status":"ok"}
//	                      | {"status":"conflict"} | {"status":"idle"}
//	                      | {"status":"stale-epoch"}; HTTP 400 on a torn stream
//	POST /v1/abandon    ?job=FP&shard=N&lease=N&worker=ID[&epoch=E][&reason=…]
//	                    → {"status":"ok"} | {"status":"expired"} | {"status":"stale-epoch"}
//	GET  /v1/status     → statusMsg (epoch, shard progress, resilience counters)
//
// Epoch fencing: every coordinator runs under a monotone epoch,
// persisted in the checkpoint ledger, bumped each time a coordinator
// (re)builds its state from that ledger. Leases and job announcements
// carry the epoch; workers echo it on heartbeats, completions and
// abandons and refuse to work for a coordinator announcing a lower
// epoch than the highest they have seen. A partitioned stale
// coordinator therefore cannot commit: the fleet that failed over
// answers it "stale-epoch" traffic only, and its own completions are
// rejected by the live coordinator the same way. An empty epoch
// parameter is accepted unfenced for hand-driven debugging clients.
package fabric

// Protocol statuses shared by coordinator and worker.
const (
	statusJob        = "job"
	statusIdle       = "idle"
	statusShutdown   = "shutdown"
	statusLease      = "lease"
	statusWait       = "wait"
	statusDone       = "done"
	statusOK         = "ok"
	statusExpired    = "expired"
	statusConflict   = "conflict"
	statusStaleEpoch = "stale-epoch"
)

// jobMsg answers GET /v1/job: the sweep point currently being worked,
// if any, as a wire-portable configuration.
type jobMsg struct {
	Status      string      `json:"status"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	Config      *WireConfig `json:"config,omitempty"`
	LeaseTTLMs  int64       `json:"lease_ttl_ms,omitempty"`
	Epoch       int64       `json:"epoch,omitempty"`
}

// leaseMsg answers POST /v1/lease: one shard range the worker now owns
// until the lease expires or it posts the completion. Fallback marks a
// poison-suspect shard's last chance: the worker should decode it with
// its fallback chain instead of the primary decoder.
type leaseMsg struct {
	Status     string `json:"status"`
	Lease      int64  `json:"lease,omitempty"`
	Shard      int    `json:"shard,omitempty"`
	FirstBlock int    `json:"first_block,omitempty"`
	Blocks     int    `json:"blocks,omitempty"`
	Epoch      int64  `json:"epoch,omitempty"`
	Fallback   bool   `json:"fallback,omitempty"`
}

// ackMsg answers POST /v1/heartbeat, /v1/complete and /v1/abandon.
type ackMsg struct {
	Status string `json:"status"`
	Epoch  int64  `json:"epoch,omitempty"`
}

// statusMsg answers GET /v1/status: the coordinator's identity (epoch,
// current point) and its resilience counters — the operator's view of
// failovers, quarantines and fencing at work.
type statusMsg struct {
	Status            string `json:"status"`
	Epoch             int64  `json:"epoch"`
	Fingerprint       string `json:"fingerprint,omitempty"`
	ShardsTotal       int    `json:"shards_total"`
	ShardsDone        int    `json:"shards_done"`
	Quarantined       int64  `json:"quarantined"`
	StaleEpochRejects int64  `json:"stale_epoch_rejects"`
	LeaseReassigns    int64  `json:"lease_reassigns"`
	FallbackRetries   int64  `json:"fallback_retries"`
	Failovers         int64  `json:"failovers"`
}
