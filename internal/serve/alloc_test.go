//go:build !race

package serve

import (
	"testing"

	"hybridsched/internal/metrics"
)

// TestServeEpochAllocFree pins the acceptance bar directly: with no
// subscribers, one epoch of the online loop — offer refill, snapshot
// copy, per-slot arbiter schedule, demand drain — performs zero heap
// allocations at n=128 in steady state, and full instrumentation
// (epoch-latency histogram, throughput counters, backlog gauge) does not
// change that. (Excluded under -race: the detector instruments
// allocations.)
func TestServeEpochAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name     string
		registry *metrics.Registry
	}{
		{"bare", nil},
		{"instrumented", metrics.NewRegistry()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 128
			for _, alg := range []string{"islip", "greedy", "tdma"} {
				s, err := New(Config{Ports: n, Algorithm: alg, SlotBits: 1500 * 8, Metrics: tc.registry})
				if err != nil {
					t.Fatal(err)
				}
				offer := func() {
					for i := 0; i < n; i++ {
						for k := 1; k <= 8; k++ {
							s.Offer(i, (i+k*7)%n, 1500*8)
						}
					}
				}
				// Warm the pooled matrices, row index lists and arbiter scratch.
				for w := 0; w < 3; w++ {
					offer()
					if _, err := s.Step(); err != nil {
						t.Fatal(err)
					}
				}
				allocs := testing.AllocsPerRun(50, func() {
					offer()
					if _, err := s.Step(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s: %v allocs per epoch, want 0", alg, allocs)
				}
				s.Close()
			}
		})
	}
}
