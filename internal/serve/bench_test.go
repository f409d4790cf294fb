package serve

import (
	"fmt"
	"testing"
)

// benchOffer replenishes a sparse demand pattern (~8 peers per port, the
// same density BenchmarkMatch uses) so every epoch has work to schedule.
func benchOffer(b *testing.B, s *Scheduler, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		for k := 1; k <= 8; k++ {
			if err := s.Offer(i, (i+k*7)%n, 1500*8); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServeEpoch prices one epoch of the online scheduling loop —
// offer refill, inbox fold, matching, demand drain — with no
// subscribers attached. The per-slot arbiters are allocation-free on
// this path at fabric port counts (the acceptance bar for the serve
// subsystem); run with -benchmem to see it.
func BenchmarkServeEpoch(b *testing.B) {
	for _, alg := range []string{"islip", "greedy", "tdma"} {
		for _, n := range []int{32, 128, 512} {
			b.Run(fmt.Sprintf("%s/n=%d", alg, n), func(b *testing.B) {
				s, err := New(Config{Ports: n, Algorithm: alg, SlotBits: 1500 * 8})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				// Warm the pooled demand state and algorithm scratch.
				benchOffer(b, s, n)
				if _, err := s.Step(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchOffer(b, s, n)
					if _, err := s.Step(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkServeEpochSubscribed prices the same epoch with a subscriber
// attached: one matching clone per epoch is the whole delta.
func BenchmarkServeEpochSubscribed(b *testing.B) {
	const n = 128
	s, err := New(Config{Ports: n, Algorithm: "islip", SlotBits: 1500 * 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sub, err := s.Subscribe(1, DropOldest)
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Close()
	benchOffer(b, s, n)
	if _, err := s.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOffer(b, s, n)
		if _, err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeOffer prices one streaming Offer at n=512 — the ingest
// rung beside BenchmarkServeEpoch. Offers cycle over the same sparse
// pattern (~8 peers per port); every full pass over the pattern is
// followed by an untimed Step, so the inbox sees the per-epoch mix of
// first touches and repeat touches a live service does.
func BenchmarkServeOffer(b *testing.B) {
	const n, peers = 512, 8
	s, err := New(Config{Ports: n, Algorithm: "islip", SlotBits: 1500 * 8})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchOffer(b, s, n)
	if _, err := s.Step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	src, k := 0, 1
	for i := 0; i < b.N; i++ {
		if err := s.Offer(src, (src+k*7)%n, 1500*8); err != nil {
			b.Fatal(err)
		}
		if k++; k > peers {
			k = 1
			if src++; src == n {
				src = 0
				b.StopTimer()
				if _, err := s.Step(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		}
	}
}
