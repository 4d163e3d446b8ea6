package live

import (
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Option configures a Participant at construction time. Options are
// the package's public configuration surface; the twopc façade
// re-exports them.
type Option func(*Participant)

// WithVariant selects the protocol variant this participant uses when
// coordinating (Baseline, PA, PN, or PC). Subordinate behavior is
// governed per transaction by the presumption announced on each
// Prepare, so participants with different variants interoperate. The
// default is Presumed Abort, the variant the paper notes became the
// industry standard.
func WithVariant(v core.Variant) Option {
	return func(p *Participant) { p.variant = v }
}

// WithTimeout overrides the total vote-collection and
// ack-collection deadlines (default 2s each). Retransmissions happen
// inside these windows per the RetryPolicy.
func WithTimeout(vote, ack time.Duration) Option {
	return func(p *Participant) {
		p.voteTimeout = vote
		p.ackTimeout = ack
	}
}

// WithRetry installs the retransmission policy for vote collection,
// decision delivery, and in-doubt inquiry. Zero fields take the
// documented defaults.
func WithRetry(rp RetryPolicy) Option {
	return func(p *Participant) { p.retry = rp.withDefaults() }
}

// WithMetrics wires a metrics registry into the participant: message
// flows, log writes (via a WAL observer), retransmissions, in-doubt
// entries, outcomes, and commit latency. Several participants may
// share one registry; counters are keyed by participant name.
func WithMetrics(reg *metrics.Registry) Option {
	return func(p *Participant) { p.met = reg }
}

// WithClock replaces the wall clock with another scheduler. Tests
// install a *clock.Virtual to drive timeouts and retry backoff
// deterministically without sleeping.
func WithClock(s clock.Scheduler) Option {
	return func(p *Participant) { p.sched = s }
}

// WithLastAgent enables the §4 Last Agent optimization when this
// participant coordinates: the final subordinate in the Commit call's
// list receives the delegation ("prepare, then you decide"),
// collapsing its exchange to a single round trip.
func WithLastAgent() Option {
	return func(p *Participant) { p.lastAgent = true }
}

// WithGroupCommit installs a fixed-parameter group-commit sync policy
// on the participant's log (§4 Group Commits): forced writes from
// concurrent transactions coalesce into shared physical syncs — the
// natural companion of pipelined commits. size is the batch size,
// maxDelay the longest a force waits for company. The policy is
// applied at construction so its timer runs on the participant's
// scheduler (WithClock order does not matter). See WithAdaptiveCommit
// for the load-adaptive variant.
func WithGroupCommit(size int, maxDelay time.Duration) Option {
	return func(p *Participant) {
		p.walMode = walPolicyGroup
		p.walGroupSize = size
		p.walGroupDelay = maxDelay
	}
}

// WithAdaptiveCommit installs the adaptive single-writer force
// pipeline on the participant's log: all forces funnel through one
// writer goroutine whose batching window widens toward maxWindow
// under load and collapses to zero when idle, so one fdatasync covers
// an entire burst without taxing idle-latency. This is the policy the
// daemon runs with fsync on.
func WithAdaptiveCommit(maxWindow time.Duration) Option {
	return func(p *Participant) {
		p.walMode = walPolicyAdaptive
		p.walMaxWindow = maxWindow
	}
}

// WithRetrySeed fixes the jitter seed (tests want reproducible
// backoff schedules; the default seed derives from the participant
// name).
func WithRetrySeed(seed int64) Option {
	return func(p *Participant) { p.retrySeed = seed }
}

// WithTrace wires a tracer into the participant: sends, receives, log
// writes, decisions, lock releases, and crash/restart markers — the
// event schema internal/check's safety oracle consumes. Participants
// of one run share a single tracer so the oracle sees a totally
// ordered interleaving.
func WithTrace(t *trace.Tracer) Option {
	return func(p *Participant) { p.trc = t }
}

// WithShards overrides the shard count of the per-transaction state
// table (rounded up to a power of two). The default derives from
// GOMAXPROCS. Benchmarks use WithShards(1) to measure the pre-sharding
// single-mutex layout; the table's behavior is identical at any count.
func WithShards(n int) Option {
	return func(p *Participant) { p.shardHint = n }
}

// WithoutCoalescing disables the per-peer flow-coalescing writer:
// every protocol message goes to the endpoint as its own packet, the
// pre-coalescing behavior. Benchmarks use it as the baseline.
func WithoutCoalescing() Option {
	return func(p *Participant) { p.noCoalesce = true }
}

// WithCoalesceWindow holds each outbound batch open for d on the
// participant's scheduler before flushing, trading latency for larger
// batches (§4 flow coalescing, the wire analog of a group-commit
// delay). The default window is zero: a batch is whatever accumulated
// while the previous send was in flight, so latency is never traded
// away. Under a virtual clock a positive window only closes when the
// test advances time.
func WithCoalesceWindow(d time.Duration) Option {
	return func(p *Participant) { p.coalesceDelay = d }
}

// WithHooks installs protocol-conformance test hooks (deliberate,
// convictable bugs): skipping the acceptor's force before it
// acknowledges, or overriding the acceptor quorum size. The chaos
// harness uses them to prove its oracle catches real protocol
// violations; production code never sets them.
func WithHooks(h core.TestHooks) Option {
	return func(p *Participant) { p.hooks = h }
}

// WithFailpoint installs a crash-injection hook. The hook is called at
// every instrumented protocol step with a point name — for example
// "before-force:Prepared", "after-send:Commit" — and the participant
// crashes (as if the process died) whenever the hook returns true.
// Chaos schedules count points to kill a participant at an exact step.
func WithFailpoint(fn func(point string) bool) Option {
	return func(p *Participant) { p.fp = fn }
}
