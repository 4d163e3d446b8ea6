package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/client"
	"repro/internal/api"
	"repro/internal/live"
)

// clients is the number of closed-loop callers, and the client's
// connection cap.
const clients = 2

// workload is one traffic mix over the shared fleet.
type workload struct {
	name string
	// keys is the keyspace preloaded during set-up.
	keys int
	// ops draws one transaction's operations.
	ops func(r *rand.Rand, zipf *rand.Zipf) []api.Op
}

const (
	uniformKeys = 10000
	hotKeys     = 16
	hotZipfS    = 1.1
	opsPerTx    = 3
)

var workloads = []workload{
	{name: "fleet-write", keys: uniformKeys, ops: func(r *rand.Rand, _ *rand.Zipf) []api.Op {
		ops := make([]api.Op, opsPerTx)
		for i := range ops {
			ops[i] = api.Op{Op: api.OpPut, Key: keyName(r.Intn(uniformKeys))}
		}
		return ops
	}},
	{name: "fleet-read", keys: uniformKeys, ops: func(r *rand.Rand, _ *rand.Zipf) []api.Op {
		ops := make([]api.Op, opsPerTx)
		for i := range ops {
			ops[i] = client.Get(keyName(r.Intn(uniformKeys)))
		}
		return ops
	}},
	{name: "fleet-hot", keys: hotKeys, ops: func(r *rand.Rand, z *rand.Zipf) []api.Op {
		ops := make([]api.Op, opsPerTx)
		for i := range ops {
			k := keyName(int(z.Uint64()))
			if r.Intn(2) == 0 {
				ops[i] = client.Get(k)
			} else {
				ops[i] = api.Op{Op: api.OpPut, Key: k}
			}
		}
		return ops
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// preloadValue is the value set-up writes to a key.
func preloadValue(key string) string { return "preload/" + key }

// opStream is one client's seeded transaction stream.
type opStream struct {
	w    workload
	r    *rand.Rand
	zipf *rand.Zipf
}

// newOpStream seeds client c's copy of one stream of a run (each fleet
// has a warm-up stream and a timed stream). The same (seed, stream,
// client) always yields the same transactions.
func newOpStream(w workload, seed int64, stream, c int) *opStream {
	r := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*101 + int64(c)))
	return &opStream{w: w, r: r, zipf: rand.NewZipf(r, hotZipfS, 1, hotKeys-1)}
}

// next returns the next transaction's ops; a put's value is filled in
// by the caller once the transaction has a name.
func (s *opStream) next() []api.Op {
	return s.w.ops(s.r, s.zipf)
}

// outcome classifies one attempt.
type outcome uint8

const (
	committed    outcome = iota
	lockAbort            // aborted while staging: lock conflict, deadlock victim, lock timeout
	otherAbort           // aborted by the protocol, or in doubt
	shed                 // refused with 503
	transportErr         // no answer
)

// attempt is one timed transaction attempt.
type attempt struct {
	lat  time.Duration
	out  outcome
	subs int // subordinates the protocol ran against, when committed
}

// txRecord is what the correctness checks need of a committed
// transaction.
type txRecord struct {
	tx, coord string
	puts      []string
	reads     map[string]string
}

// loader runs the closed-loop clients against one fleet.
type loader struct {
	f       *fleet
	w       workload
	streams []*opStream
	seq     []int
	segment int

	mu   sync.Mutex
	done []txRecord // every committed transaction, set-up included
}

func newLoader(f *fleet, w workload, segment int) *loader {
	return &loader{f: f, w: w, segment: segment, seq: make([]int, clients)}
}

// useStream points every client at its copy of the given stream.
func (d *loader) useStream(seed int64, stream int) {
	d.streams = d.streams[:0]
	for c := 0; c < clients; c++ {
		d.streams = append(d.streams, newOpStream(d.w, seed, stream, c))
	}
}

// run drives every client until the deadline, or until it has run
// perClient transactions when perClient > 0, and returns the attempts
// in client order. An attempt started before the deadline is finished
// and counted.
func (d *loader) run(ctx context.Context, until time.Time, perClient int) []attempt {
	per := make([][]attempt, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; (perClient == 0 || n < perClient) && time.Now().Before(until) && ctx.Err() == nil; n++ {
				per[c] = append(per[c], d.one(ctx, c))
			}
		}(c)
	}
	wg.Wait()
	var all []attempt
	for _, a := range per {
		all = append(all, a...)
	}
	return all
}

// one runs client c's next transaction.
func (d *loader) one(ctx context.Context, c int) attempt {
	d.seq[c]++
	tx := fmt.Sprintf("g%dc%d:%d", d.segment, c, d.seq[c])
	ops := d.streams[c].next()
	var puts []string
	for i := range ops {
		if ops[i].Op == api.OpPut {
			ops[i].Value = tx
			puts = append(puts, ops[i].Key)
		}
	}
	start := time.Now()
	resp, err := d.f.client.Commit(ctx, tx, ops)
	a := attempt{lat: time.Since(start)}
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr) && apiErr.Temporary():
		a.out = shed
	case err != nil:
		a.out = transportErr
	case resp.Outcome == live.Committed.String():
		a.out, a.subs = committed, len(resp.Participants)
		d.record(txRecord{tx: tx, coord: resp.Coordinator, puts: puts, reads: resp.Reads})
	case strings.HasPrefix(resp.Abort, "staging on "):
		a.out = lockAbort
	default:
		a.out = otherAbort
	}
	return a
}

func (d *loader) record(r txRecord) {
	d.mu.Lock()
	d.done = append(d.done, r)
	d.mu.Unlock()
}

// preload writes every key of the workload's keyspace through the
// router, in wide transactions split over the clients.
func (d *loader) preload(ctx context.Context) error {
	const batch = 50
	var (
		wg   sync.WaitGroup
		errc = make(chan error, clients)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for lo := c * batch; lo < d.w.keys; lo += clients * batch {
				tx := fmt.Sprintf("p%dc%d:%d", d.segment, c, lo)
				var ops []api.Op
				var keys []string
				for k := lo; k < lo+batch && k < d.w.keys; k++ {
					ops = append(ops, client.Put(keyName(k), preloadValue(keyName(k))))
					keys = append(keys, keyName(k))
				}
				resp, err := d.f.client.Commit(ctx, tx, ops)
				if err == nil && resp.Outcome != live.Committed.String() {
					err = fmt.Errorf("preload %s: %s (%s)", tx, resp.Outcome, resp.Abort)
				}
				if err != nil {
					errc <- err
					return
				}
				d.record(txRecord{tx: tx, coord: resp.Coordinator, puts: keys})
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	return <-errc
}
