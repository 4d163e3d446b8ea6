package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/wal"
)

// baseTransport is the transport the daemons and the router use when
// nothing is wrapped: http.DefaultTransport as the process started.
var baseTransport = http.DefaultTransport

// tracer collects per-layer samples on a traced segment. Everything it
// measures is taken from the benchmark's side of a public boundary:
// the router's handler and forwarding client, the transport the
// members' /v1/stage client uses, and the WAL store interface. It
// records only while on, which covers the timed window.
type tracer struct {
	on atomic.Bool

	mu       sync.Mutex
	forward  []time.Duration // router -> coordinator round trip
	self     []time.Duration // router handler time outside the forward
	coord    []time.Duration // coordinator-reported LatencyMS
	httpPart []time.Duration // forward round trip minus coordinator time
	stage    []time.Duration // /v1/stage round trips
	syncs    []time.Duration // store Sync calls
	walBytes int64           // logical record bytes handed to the stores
}

type forwardSlot struct{}

// routerHandler times the router's whole handler and splits it into
// the forward round trip (filled in by forwardTransport) and the rest.
// The coordinator's own latency comes from the response body.
func (t *tracer) routerHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		fwd := new(time.Duration)
		r = r.WithContext(context.WithValue(r.Context(), forwardSlot{}, fwd))
		cw := &captureWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(cw, r)
		total := time.Since(start)
		var body struct {
			LatencyMS float64 `json:"latency_ms"`
		}
		if json.Unmarshal(cw.body.Bytes(), &body) != nil || *fwd == 0 {
			return
		}
		coord := time.Duration(body.LatencyMS * float64(time.Millisecond))
		t.mu.Lock()
		t.forward = append(t.forward, *fwd)
		t.self = append(t.self, total-*fwd)
		t.coord = append(t.coord, coord)
		t.httpPart = append(t.httpPart, *fwd-coord)
		t.mu.Unlock()
	})
}

// captureWriter keeps a copy of the response body.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// forwardTransport is the router's forwarding transport: the base
// transport, timed into the slot routerHandler put in the context.
func (t *tracer) forwardTransport() http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		start := time.Now()
		resp, err := baseTransport.RoundTrip(r)
		if slot, ok := r.Context().Value(forwardSlot{}).(*time.Duration); ok {
			*slot = time.Since(start)
		}
		return resp, err
	})
}

// stageTransport replaces http.DefaultTransport on a traced segment;
// the members' /v1/stage client sends through it.
func (t *tracer) stageTransport() http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.URL.Path != api.PathStage || !t.on.Load() {
			return baseTransport.RoundTrip(r)
		}
		start := time.Now()
		resp, err := baseTransport.RoundTrip(r)
		d := time.Since(start)
		t.mu.Lock()
		t.stage = append(t.stage, d)
		t.mu.Unlock()
		return resp, err
	})
}

// timedStore is the segment store with its Sync calls timed and its
// appended record bytes counted.
type timedStore struct {
	*wal.SegmentStore
	tr *tracer
}

func (s *timedStore) Append(rec wal.Record) error {
	if s.tr.on.Load() {
		s.tr.mu.Lock()
		s.tr.walBytes += int64(len(rec.Tx) + len(rec.Node) + len(rec.Kind) + len(rec.Data))
		s.tr.mu.Unlock()
	}
	return s.SegmentStore.Append(rec)
}

func (s *timedStore) Sync() error {
	if !s.tr.on.Load() {
		return s.SegmentStore.Sync()
	}
	start := time.Now()
	err := s.SegmentStore.Sync()
	d := time.Since(start)
	s.tr.mu.Lock()
	s.tr.syncs = append(s.tr.syncs, d)
	s.tr.mu.Unlock()
	return err
}
