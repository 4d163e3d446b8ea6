package check

import (
	"fmt"
	"testing"
)

// TestChaosLiveCodecPinned replays live-engine chaos schedules with
// every packet round-tripped through the binary wire codec. The
// oracle's verdict must not depend on the wire — marshaling is below
// the protocol — and a decode divergence would surface as lost or
// mutated traffic the safety checks catch.
func TestChaosLiveCodecPinned(t *testing.T) {
	// The subtest is named for the wire codec it runs on.
	t.Run("binary", func(t *testing.T) {
		// Live-engine seeds have bit 3 set; sweep the six variants (low
		// three bits) with a crash/loss mix decided by the seed.
		for i := int64(0); i < 12; i++ {
			seed := i*16 + 8 + (i % 6)
			s := FromSeed(seed)
			if s.Engine != "live" {
				t.Fatalf("seed %d: expected live engine, got %s", seed, s.Engine)
			}
			s.Wire = true
			res, err := Execute(s)
			if err != nil {
				t.Fatalf("chaos %s: execute: %v", s, err)
			}
			if vs := Check(res.Run); len(vs) != 0 {
				msg := fmt.Sprintf("chaos %s violated safety:", s)
				for _, v := range vs {
					msg += "\n  " + v.String()
				}
				t.Fatal(msg)
			}
		}
	})
}
