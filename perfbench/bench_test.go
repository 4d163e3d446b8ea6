package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/analytic"
)

// TestOpStreamSeeded checks that a seed fixes each client's op stream
// and that another seed changes it.
func TestOpStreamSeeded(t *testing.T) {
	draw := func(w workload, seed int64, c int) [][]string {
		s := newOpStream(w, seed, 0, c)
		var out [][]string
		for i := 0; i < 500; i++ {
			var tx []string
			for _, op := range s.next() {
				tx = append(tx, string(op.Op)+" "+op.Key)
			}
			out = append(out, tx)
		}
		return out
	}
	for _, w := range workloads {
		a, b := draw(w, 42, 0), draw(w, 42, 0)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 gave two different streams", w.name)
		}
		if reflect.DeepEqual(a, draw(w, 43, 0)) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
		if reflect.DeepEqual(a, draw(w, 42, 1)) {
			t.Errorf("%s: clients 0 and 1 share a stream", w.name)
		}
	}
}

// TestFleetWriteCostsExact runs the same short fleet-write twice, the
// second time traced, and checks that the measured protocol flows and
// forced writes per commit repeat exactly and equal the paper's closed
// forms summed over the widths the transactions actually had.
func TestFleetWriteCostsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two fleets")
	}
	w, _ := findWorkload("fleet-write")
	type perTx struct{ flows, forces float64 }
	measure := func(traced bool) perTx {
		seg, err := runSegment(w, 7, 0, time.Minute, 60, traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var want analytic.Triplet
		n := 0
		for _, a := range seg.attempts {
			if a.out != committed {
				continue
			}
			rc, ok := analytic.CommitCostByRole(paVariant.String(), a.subs)
			if !ok {
				t.Fatalf("no closed form for %s", paVariant)
			}
			want = want.Add(rc.Coordinator)
			for i := 0; i < a.subs; i++ {
				want = want.Add(rc.Subordinate)
			}
			n++
		}
		if n != 2*60 {
			t.Fatalf("%d of %d transactions committed", n, len(seg.attempts))
		}
		if seg.layer.flows != want.Flows || seg.layer.forces != want.Forced {
			t.Fatalf("measured %d flows, %d forces; closed forms give %d, %d",
				seg.layer.flows, seg.layer.forces, want.Flows, want.Forced)
		}
		return perTx{float64(seg.layer.flows) / float64(n), float64(seg.layer.forces) / float64(n)}
	}
	first, second := measure(false), measure(true)
	if first != second {
		t.Fatalf("same seed, different costs per commit: %+v then %+v", first, second)
	}
	t.Logf("live.flows_per_tx %.4f, wal.forces_per_tx %.4f", first.flows, first.forces)
}
