package wal

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// SyncPolicy decides how a logical force request is turned into
// physical syncs. Policies may coalesce concurrent requests (group
// commit) but must not return before the requester's record is in
// stable storage (the LSN-coverage contract documented on Log.Force).
type SyncPolicy interface {
	ForceSync(l *Log) error
}

// ImmediateSync is the classic policy: every force request issues its
// own physical sync.
type ImmediateSync struct{}

// ForceSync flushes the log buffer immediately.
func (ImmediateSync) ForceSync(l *Log) error { return l.flush() }

// GroupCommit coalesces concurrent force requests into batches, the
// optimization of §4 "Group Commits" (originally from IMS Fast-Path).
// A physical sync is issued when Size requests have gathered or when
// MaxDelay elapses since the batch opened, whichever comes first.
// Every force request blocks until a sync covering it completes, so
// durability guarantees are unchanged; only the number of physical
// syncs (and individual latency) differ.
//
// GroupCommit is the fixed-parameter A/B baseline for the adaptive
// Pipeline; its timer runs on an injectable clock.Scheduler so
// virtual-time tests can drive batch expiry deterministically.
type GroupCommit struct {
	size     int
	maxDelay time.Duration
	sched    clock.Scheduler

	mu      sync.Mutex
	cur     *groupBatch
	count   int
	batches int // total batches fired, for tests and benchmarks
}

type groupBatch struct {
	done chan struct{}
	err  error
}

// NewGroupCommit returns a group-commit policy with the given batch
// size and maximum delay. Size is clamped to at least 1; a
// non-positive delay fires batches as soon as the scheduler allows,
// degenerating to near-immediate syncs. The timer defaults to wall
// time; use WithScheduler to inject a virtual clock.
func NewGroupCommit(size int, maxDelay time.Duration) *GroupCommit {
	if size < 1 {
		size = 1
	}
	if maxDelay < 0 {
		maxDelay = 0
	}
	return &GroupCommit{size: size, maxDelay: maxDelay, sched: clock.NewWall()}
}

// WithScheduler routes the batch-expiry timer through s and returns g
// for chaining. Call it before the policy sees traffic.
func (g *GroupCommit) WithScheduler(s clock.Scheduler) *GroupCommit {
	if s != nil {
		g.sched = s
	}
	return g
}

// ForceSync joins the current batch (opening one if needed) and
// blocks until the batch's sync completes.
func (g *GroupCommit) ForceSync(l *Log) error {
	g.mu.Lock()
	if g.cur == nil {
		b := &groupBatch{done: make(chan struct{})}
		g.cur = b
		g.count = 0
		t := g.sched.NewTimer(g.maxDelay)
		go func() {
			select {
			case <-t.C():
				g.fire(l, b)
			case <-b.done:
				t.Stop()
			}
		}()
	}
	b := g.cur
	g.count++
	full := g.count >= g.size
	g.mu.Unlock()

	if full {
		g.fire(l, b)
	}
	<-b.done
	return b.err
}

// fire closes batch b (if still current) and performs its sync. The
// race between the size trigger and the timer is resolved by the
// cur-pointer check: whoever gets there first wins, the other call is
// a no-op.
func (g *GroupCommit) fire(l *Log, b *groupBatch) {
	g.mu.Lock()
	if g.cur != b {
		g.mu.Unlock()
		return
	}
	g.cur = nil
	g.batches++
	g.mu.Unlock()

	b.err = l.flush()
	close(b.done)
}

// Pending reports how many force requests wait in the open batch (0
// when no batch is open). A driver on a virtual clock uses it to
// advance time only once every outstanding request has joined.
func (g *GroupCommit) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cur == nil {
		return 0
	}
	return g.count
}

// Batches reports how many batches have been fired.
func (g *GroupCommit) Batches() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.batches
}
