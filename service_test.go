package hybridsched

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func newTestService(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatalf("NewService(%+v): %v", cfg, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServiceValidation(t *testing.T) {
	bad := []ServiceConfig{
		{Ports: 1, Algorithm: "islip"},
		{Ports: 8, Algorithm: "no-such-alg"},
		{Ports: 8, Algorithm: "islip", Shards: -1},
		{Ports: 8, Algorithm: "islip", SlotBits: -1},
		{Ports: 8, Algorithm: "islip",
			Workload: &TrafficConfig{LineRate: 10 * Gbps, Load: 0.5, Pattern: Uniform{}, Sizes: Fixed{Size: 1500 * Byte}}},
		{Ports: 8, Algorithm: "islip", EpochSpan: Microsecond,
			Workload: &TrafficConfig{Load: 9, Pattern: Uniform{}}},
	}
	for i, cfg := range bad {
		if _, err := NewService(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestServiceOfferStepSubscribe(t *testing.T) {
	s := newTestService(t, ServiceConfig{Ports: 8, Algorithm: "islip", SlotBits: 1000})
	sub, err := s.Subscribe(0, 8, DropOldestFrame)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Offer(2, 5, 1500); err != nil {
		t.Fatal(err)
	}
	frames, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || frames[0].Epoch != 1 || frames[0].ServedBits != 1000 {
		t.Fatalf("frames = %+v", frames)
	}
	f := <-sub.Frames()
	if f.Match[2] != 5 || f.BacklogBits != 500 {
		t.Fatalf("subscribed frame = %+v", f)
	}
	if _, err := s.Subscribe(1, 1, DropOldestFrame); err == nil {
		t.Fatal("subscribe to nonexistent shard accepted")
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d", s.Epoch())
	}
}

func TestServiceOfferRecordsFromCapturedTrace(t *testing.T) {
	// Capture a real scenario's workload, then feed the trace to a live
	// service — the batch-to-online bridge.
	var tape bytes.Buffer
	sc, err := NewScenario(append(baseOptions(), CaptureTrace(&tape))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Run(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(bytes.NewReader(tape.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, ServiceConfig{Ports: 8, Algorithm: "greedy"})
	if err := s.OfferRecords(recs); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, r := range recs {
		if r.Src != r.Dst {
			want += int64(r.Size)
		}
	}
	if got := s.Stats()[0].OfferedBits; got != want {
		t.Fatalf("offered = %d, want %d", got, want)
	}
	// Drain it all.
	for s.Stats()[0].BacklogBits > 0 {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats()[0]; st.ServedBits != want {
		t.Fatalf("served = %d, want %d", st.ServedBits, want)
	}
}

func TestServiceShardedWorkloadStep(t *testing.T) {
	s := newTestService(t, ServiceConfig{
		Ports:     16,
		Algorithm: "islip",
		Seed:      3,
		Shards:    4,
		Workers:   2,
		SlotBits:  4000 * 8,
		Workload: &TrafficConfig{
			LineRate:  10 * Gbps,
			Load:      0.5,
			Pattern:   Uniform{},
			Process:   FlowArrivals,
			FlowSizes: CacheFollower(),
		},
		EpochSpan: Microsecond,
	})
	for e := 0; e < 300; e++ {
		frames, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != 4 {
			t.Fatalf("got %d frames", len(frames))
		}
		for i, f := range frames {
			if f.Shard != i || f.Epoch != uint64(e+1) {
				t.Fatalf("frame %d = %+v", i, f)
			}
		}
	}
	stats := s.Stats()
	var offered int64
	for _, st := range stats {
		offered += st.OfferedBits
	}
	if offered == 0 {
		t.Fatal("workload produced no demand")
	}
	// Shards are decorrelated: not all identical.
	allSame := true
	for _, st := range stats[1:] {
		if st.OfferedBits != stats[0].OfferedBits {
			allSame = false
		}
	}
	if allSame {
		t.Error("shard workloads identical; seeds not derived")
	}
}

func TestServiceSnapshotRestore(t *testing.T) {
	mk := func() ServiceConfig {
		return ServiceConfig{Ports: 8, Algorithm: "islip", Seed: 11, Shards: 2, SlotBits: 500}
	}
	a := newTestService(t, mk())
	a.OfferShard(0, 1, 2, 3000)
	a.OfferShard(1, 4, 5, 7000)
	for e := 0; e < 3; e++ {
		if _, err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := a.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	b, err := RestoreService(mk(), bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Epoch() != 3 {
		t.Fatalf("restored epoch = %d, want 3", b.Epoch())
	}
	var snap2 bytes.Buffer
	if err := b.Snapshot(&snap2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), snap2.Bytes()) {
		t.Fatal("snapshot -> restore -> snapshot not byte-identical")
	}
	// Garbage checkpoint fails cleanly with the trace error taxonomy.
	if _, err := RestoreService(mk(), bytes.NewReader([]byte("junk"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("garbage restore = %v, want ErrBadTrace", err)
	}
}

func TestServiceRunAndClose(t *testing.T) {
	s := newTestService(t, ServiceConfig{Ports: 8, Algorithm: "islip"})
	s.Offer(0, 1, 1e6)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, 100*time.Microsecond) }()
	deadline := time.After(5 * time.Second)
	for s.Epoch() < 2 {
		select {
		case <-deadline:
			t.Fatal("no epochs after 5s")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want Canceled", err)
	}
	go func() { done <- s.Run(context.Background(), 100*time.Microsecond) }()
	time.Sleep(2 * time.Millisecond)
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("Run stopped by Close = %v, want nil", err)
	}
	if err := s.Offer(0, 1, 1); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Offer after Close = %v, want ErrServiceClosed", err)
	}
	if err := s.Run(context.Background(), 0); err == nil {
		t.Fatal("non-positive interval accepted")
	}
}

// TestServiceOfferOverflow: the public API rejects an offer that would
// wrap the backlog with ErrServiceOverflow, and the books stay exact.
func TestServiceOfferOverflow(t *testing.T) {
	s := newTestService(t, ServiceConfig{Ports: 4, Algorithm: "islip"})
	const half = Size(math.MaxInt64/2 + 1)
	if err := s.Offer(0, 1, half); err != nil {
		t.Fatal(err)
	}
	if err := s.Offer(0, 1, half); !errors.Is(err, ErrServiceOverflow) {
		t.Fatalf("second Offer = %v, want ErrServiceOverflow", err)
	}
	st := s.Stats()[0]
	if st.OfferedBits != int64(half) || st.BacklogBits != int64(half) {
		t.Fatalf("offered %d backlog %d, want both %d", st.OfferedBits, st.BacklogBits, int64(half))
	}
}
