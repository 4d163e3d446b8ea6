package main

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/wal"
)

// counters are the public counters of every member, plus the Go
// runtime's: either a reading at one instant or how far they moved
// over one or more timed windows.
type counters struct {
	flows, packets, retries, inDoubt int
	forces, syncs                    int
	forceLat                         wal.ForceLatencyBuckets
	hold                             time.Duration
	shed                             uint64
	commitLat                        [][]time.Duration // per member, live's own commit latencies
	alloc                            uint64
	gcs                              uint32
	// Filled by the waiter sampler over a window, not by snapshot.
	waiterSum, waiterSamples int
}

// snapshot reads the fleet's counters.
func snapshot(f *fleet) counters {
	var c counters
	for i, s := range f.members {
		snap := s.Registry().Snapshot()
		for _, n := range snap.Nodes {
			c.flows += n.MessagesSent
			c.packets += n.PacketsSent
		}
		c.retries += snap.TotalRetries()
		c.inDoubt += snap.TotalInDoubt()
		st := f.logs[i].Stats()
		c.forces += st.Forces
		c.syncs += st.Syncs
		addBuckets(&c.forceLat, f.logs[i].ForceLatencyBuckets())
		c.hold += s.Store().Locks().TotalHoldTime()
		for _, cc := range s.AdmissionStats().PerClass {
			c.shed += cc.Shed
		}
		c.commitLat = append(c.commitLat, s.Registry().Latencies())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc, c.gcs = ms.TotalAlloc, ms.NumGC
	return c
}

// sub is how far the counters moved from the earlier reading a to c.
func (c counters) sub(a counters) counters {
	d := counters{
		flows:         c.flows - a.flows,
		packets:       c.packets - a.packets,
		retries:       c.retries - a.retries,
		inDoubt:       c.inDoubt - a.inDoubt,
		forces:        c.forces - a.forces,
		syncs:         c.syncs - a.syncs,
		forceLat:      c.forceLat.Delta(a.forceLat),
		hold:          c.hold - a.hold,
		shed:          c.shed - a.shed,
		alloc:         c.alloc - a.alloc,
		gcs:           c.gcs - a.gcs,
		waiterSum:     c.waiterSum - a.waiterSum,
		waiterSamples: c.waiterSamples - a.waiterSamples,
	}
	for i := range c.commitLat {
		d.commitLat = append(d.commitLat, c.commitLat[i][len(a.commitLat[i]):])
	}
	return d
}

// add sums the movements of two windows into c.
func (c *counters) add(o counters) {
	c.flows += o.flows
	c.packets += o.packets
	c.retries += o.retries
	c.inDoubt += o.inDoubt
	c.forces += o.forces
	c.syncs += o.syncs
	addBuckets(&c.forceLat, o.forceLat)
	c.hold += o.hold
	c.shed += o.shed
	c.commitLat = append(c.commitLat, o.commitLat...)
	c.alloc += o.alloc
	c.gcs += o.gcs
	c.waiterSum += o.waiterSum
	c.waiterSamples += o.waiterSamples
}

func addBuckets(sum *wal.ForceLatencyBuckets, b wal.ForceLatencyBuckets) {
	for i := range b {
		sum[i] += b[i]
	}
}

// window is what the counters moved by over a timed window. The
// runtime's readings come from end, taken when the window closed; the
// fleet's from after, taken once the fleet had drained, so the
// asynchronous tail of the window's transactions is counted.
func window(before, end, after counters) counters {
	d := after.sub(before)
	d.alloc, d.gcs = end.alloc-before.alloc, end.gcs-before.gcs
	return d
}

// waiterSampler samples the fleet's blocked lock requests.
type waiterSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	sum   int
	n     int
}

// waiterEvery is the sampling period. TotalWaiters walks every lock
// entry a member has ever made (up to 10,000 keys here) under the
// shard mutexes, so sampling more often slows the traced fleets'
// lock manager and the one P they run on.
const waiterEvery = 20 * time.Millisecond

func startWaiterSampler(f *fleet) *waiterSampler {
	w := &waiterSampler{stopc: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(waiterEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stopc:
				return
			case <-t.C:
				for _, s := range f.members {
					w.sum += s.Store().Locks().TotalWaiters()
				}
				w.n++
			}
		}
	}()
	return w
}

// stop ends sampling and returns the waiter total and sample count.
func (w *waiterSampler) stop() (sum, samples int) {
	close(w.stopc)
	w.wg.Wait()
	return w.sum, w.n
}

// layers reports the per-layer metrics of the pooled traced fleets.
func (p *pool) layers(r *report) {
	d, t := &p.layer, &p.tr
	tx := float64(max(p.count(committed), 1))
	ktx := float64(max(p.attempted(), 1)) / 1000
	us := func(x time.Duration) float64 { return float64(x) / float64(time.Microsecond) }

	r.add("router.forward_us.p50", quantileUS(t.forward, 0.50), "us")
	r.add("router.forward_us.p99", quantileUS(t.forward, 0.99), "us")
	r.add("router.self_us.p50", quantileUS(t.self, 0.50), "us")
	r.add("server.coord_us.p50", quantileUS(t.coord, 0.50), "us")
	r.add("server.coord_us.p99", quantileUS(t.coord, 0.99), "us")
	r.add("server.http_us.p50", quantileUS(t.httpPart, 0.50), "us")
	r.add("stage.remote_us.p50", quantileUS(t.stage, 0.50), "us")
	r.add("stage.remote_us.p99", quantileUS(t.stage, 0.99), "us")
	r.add("stage.calls_per_tx", float64(len(t.stage))/tx, "count")
	r.add("lockmgr.hold_us_per_tx", us(d.hold)/tx, "us")
	r.add("lockmgr.waiters_mean", float64(d.waiterSum)/float64(max(d.waiterSamples, 1)), "count")
	r.add("kvstore.aborts_per_ktx", float64(p.count(lockAbort))/ktx, "count")
	var commitLat []time.Duration
	for _, m := range d.commitLat {
		commitLat = append(commitLat, m...)
	}
	r.add("live.commit_us.p50", quantileUS(commitLat, 0.50), "us")
	r.add("live.commit_us.p99", quantileUS(commitLat, 0.99), "us")
	r.add("live.flows_per_tx", float64(d.flows)/tx, "count")
	r.add("live.packets_per_tx", float64(d.packets)/tx, "count")
	r.add("live.retries_per_ktx", float64(d.retries)/ktx, "count")
	r.add("live.in_doubt_per_ktx", float64(d.inDoubt)/ktx, "count")
	r.add("wal.forces_per_tx", float64(d.forces)/tx, "count")
	r.add("wal.syncs_per_force", float64(d.syncs)/float64(max(d.forces, 1)), "ratio")
	fl := d.forceLat.Summary()
	r.add("wal.force_us.p50", us(fl.P50), "us")
	r.add("wal.force_us.p99", us(fl.P99), "us")
	r.add("wal.sync_us.p50", quantileUS(t.syncs, 0.50), "us")
	r.add("wal.sync_us.p99", quantileUS(t.syncs, 0.99), "us")
	r.add("wal.bytes_per_tx", float64(t.walBytes)/tx, "B")
	r.add("admission.shed_per_ktx", float64(d.shed)/ktx, "count")
	r.add("runtime.alloc_kb_per_tx", float64(d.alloc)/1024/tx, "KiB")
	r.add("runtime.gc_per_ktx", float64(d.gcs)/ktx, "count")
	r.line("samples: router %d, stage %d, live %d, wal forces %d, wal syncs %d, lock-waiter %d",
		len(t.forward), len(t.stage), len(commitLat), fl.Count, len(t.syncs), d.waiterSamples)
}
