package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
	"repro/internal/live"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/wal"
)

// memberNames are the fleet's three hash-sharded members.
var memberNames = []string{"S1", "S2", "S3"}

// paVariant is Presumed Abort, the daemon's default variant.
var paVariant, _ = server.ParseVariant("pa")

// fleet is one in-process deployment: three twopcd-equivalent members
// behind a twopcrouter-equivalent routing tier, and the client the
// load generator drives it through.
type fleet struct {
	members []*server.Server
	logs    []*wal.Log
	stores  []*wal.SegmentStore
	dirs    []string

	routerSrv  *http.Server
	routerLn   net.Listener
	routerDone chan struct{} // closed when the router's Serve returns
	client     *client.Client
	clientTr   *http.Transport
}

// startFleet builds the fleet the way the daemons configure it from
// their flags: `twopcd -wal <dir>` (segment store, adaptive group
// commit at 2ms, 2s vote/ack timeouts, conformance audit on, PA) and
// `twopcrouter -seed <member>` with first-shard pick. walRoot receives
// one segment directory per member. A non-nil tr wraps the WAL stores,
// the router's handler and its forwarding transport.
//
// One setting differs from the daemon: the segment stores skip
// fdatasync. The WAL directory lives in the working tree, on whatever
// device that is, and a shared device's flush latency swings the
// results by tens of percent from run to run. The segment store, the
// force pipeline and every Sync call stay on the commit path; only the
// device flush is skipped, which is what it costs on a memory-backed
// filesystem.
func startFleet(walRoot string, tr *tracer) (*fleet, error) {
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			_ = f.close()
		}
	}()
	shardMap := "hash:" + strings.Join(memberNames, ",")
	for _, name := range memberNames {
		dir := filepath.Join(walRoot, name)
		seg, err := wal.OpenSegmentStore(dir, wal.WithSegmentFsync(false), wal.WithSegmentBytes(4<<20))
		if err != nil {
			return nil, err
		}
		var store wal.Store = seg
		if tr != nil {
			store = &timedStore{SegmentStore: seg, tr: tr}
		}
		log := wal.New(store)
		f.dirs = append(f.dirs, dir)
		f.stores = append(f.stores, seg)
		f.logs = append(f.logs, log)
		s, err := server.New(server.Config{
			Name:     name,
			Variant:  paVariant,
			Log:      log,
			ShardMap: shardMap,
			LiveOptions: []live.Option{
				live.WithTimeout(2*time.Second, 2*time.Second),
				live.WithAdaptiveCommit(2 * time.Millisecond),
			},
		})
		if err != nil {
			return nil, err
		}
		f.members = append(f.members, s)
	}
	for i, s := range f.members {
		for j, p := range f.members {
			if i != j {
				s.RegisterPeer(memberNames[j], p.ProtoAddr())
				s.RegisterPeerHTTP(memberNames[j], "http://"+p.HTTPAddr())
			}
		}
	}
	rcfg := router.Config{
		Seeds: []string{"http://" + f.members[0].HTTPAddr()},
		Pick:  router.PickFirstShard,
	}
	if tr != nil {
		rcfg.Client = &http.Client{Transport: tr.forwardTransport()}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	r, err := router.New(ctx, rcfg)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("router bootstrap: %w", err)
	}
	if f.routerLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	var h http.Handler = r.Handler()
	if tr != nil {
		h = tr.routerHandler(h)
	}
	f.routerSrv = &http.Server{Handler: h}
	f.routerDone = make(chan struct{})
	go func() {
		defer close(f.routerDone)
		_ = f.routerSrv.Serve(f.routerLn)
	}()

	// One process, at most two client connections.
	f.clientTr = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	f.client = client.New("http://"+f.routerLn.Addr().String(),
		client.WithHTTPClient(&http.Client{Transport: f.clientTr}))
	ok = true
	return f, nil
}

// close stops the router and the members, then flushes and closes
// every log and segment store. It returns the first close error.
func (f *fleet) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if f.routerSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		keep(f.routerSrv.Shutdown(ctx))
		cancel()
		<-f.routerDone
	}
	if f.clientTr != nil {
		f.clientTr.CloseIdleConnections()
	}
	for _, s := range f.members {
		keep(s.Close())
	}
	for _, l := range f.logs {
		keep(l.Close())
	}
	for _, st := range f.stores {
		keep(st.Close())
	}
	if t, ok := baseTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	f.members, f.logs, f.stores = nil, nil, nil
	return first
}
