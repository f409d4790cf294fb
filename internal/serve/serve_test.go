package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hybridsched/internal/match"
	"hybridsched/internal/trace"
)

func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Ports: 8, Algorithm: "islip"}, true},
		{"one port", Config{Ports: 1, Algorithm: "islip"}, false},
		{"unknown algorithm", Config{Ports: 8, Algorithm: "nope"}, false},
		{"negative slot", Config{Ports: 8, Algorithm: "islip", SlotBits: -1}, false},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestOfferStepDrains(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip", SlotBits: 1000})
	if err := s.Offer(0, 1, 2500); err != nil {
		t.Fatal(err)
	}
	if err := s.Offer(2, 3, 700); err != nil {
		t.Fatal(err)
	}
	// Epoch 1: both pairs matched (disjoint), each drained up to SlotBits.
	f, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if f.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", f.Epoch)
	}
	if f.Pairs != 2 {
		t.Fatalf("pairs = %d, want 2", f.Pairs)
	}
	if f.ServedBits != 1000+700 {
		t.Fatalf("served = %d, want 1700", f.ServedBits)
	}
	if f.BacklogBits != 1500 {
		t.Fatalf("backlog = %d, want 1500", f.BacklogBits)
	}
	// Two more epochs clear the 0->1 remainder.
	if f, err = s.Step(); err != nil || f.ServedBits != 1000 {
		t.Fatalf("epoch 2: frame %+v err %v, want 1000 served", f, err)
	}
	if f, err = s.Step(); err != nil || f.ServedBits != 500 || f.BacklogBits != 0 {
		t.Fatalf("epoch 3: frame %+v err %v, want 500 served, 0 backlog", f, err)
	}
	// Idle epoch: empty matching.
	if f, err = s.Step(); err != nil || f.Pairs != 0 {
		t.Fatalf("epoch 4: frame %+v err %v, want idle", f, err)
	}
	st := s.Stats()
	if st.Epochs != 4 || st.IdleEpochs != 1 || st.OfferedBits != 3200 || st.ServedBits != 3200 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOfferValidation(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "greedy"})
	if err := s.Offer(0, 4, 1); err == nil {
		t.Error("out-of-range dst accepted")
	}
	if err := s.Offer(-1, 0, 1); err == nil {
		t.Error("negative src accepted")
	}
	if err := s.Offer(0, 1, -5); err == nil {
		t.Error("negative demand accepted")
	}
	// Self-traffic and zero demand are silently ignored.
	if err := s.Offer(2, 2, 100); err != nil {
		t.Errorf("self-traffic: %v", err)
	}
	if err := s.Offer(0, 1, 0); err != nil {
		t.Errorf("zero demand: %v", err)
	}
	if got := s.Stats().OfferedBits; got != 0 {
		t.Errorf("offered = %d, want 0", got)
	}
}

func TestOfferRecords(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "greedy"})
	recs := []trace.Record{
		{Src: 0, Dst: 1, Size: 1000},
		{Src: 1, Dst: 1, Size: 999}, // self-traffic: skipped
		{Src: 3, Dst: 2, Size: 500},
	}
	if err := s.OfferRecords(recs); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().OfferedBits; got != 1500 {
		t.Fatalf("offered = %d, want 1500", got)
	}
	// A batch with any out-of-range record offers nothing.
	bad := []trace.Record{{Src: 0, Dst: 1, Size: 1}, {Src: 9, Dst: 0, Size: 1}}
	if err := s.OfferRecords(bad); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if got := s.Stats().OfferedBits; got != 1500 {
		t.Fatalf("failed batch mutated demand: offered = %d", got)
	}
}

func TestSubscribeDelivery(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip", SlotBits: 100})
	sub, err := s.Subscribe(16, DropOldest)
	if err != nil {
		t.Fatal(err)
	}
	s.Offer(1, 2, 250)
	for i := 0; i < 3; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := []int64{100, 100, 50}
	for i, w := range want {
		f := <-sub.Frames()
		if f.Epoch != uint64(i+1) || f.ServedBits != w {
			t.Fatalf("frame %d = %+v, want epoch %d served %d", i, f, i+1, w)
		}
		if f.Match[1] != 2 {
			t.Fatalf("frame %d match = %v, want 1->2", i, f.Match)
		}
	}
	sub.Close()
	if _, ok := <-sub.Frames(); ok {
		t.Fatal("channel open after Close")
	}
	// Steps after unsubscribe don't panic or deliver.
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
}

func TestDropPolicies(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "greedy", SlotBits: 10})
	oldest, _ := s.Subscribe(2, DropOldest)
	newest, _ := s.Subscribe(2, DropNewest)
	s.Offer(0, 1, 1000)
	const epochs = 6
	for i := 0; i < epochs; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// DropOldest: buffer holds the two freshest frames.
	if f := <-oldest.Frames(); f.Epoch != epochs-1 {
		t.Errorf("drop-oldest first frame epoch = %d, want %d", f.Epoch, epochs-1)
	}
	if f := <-oldest.Frames(); f.Epoch != epochs {
		t.Errorf("drop-oldest second frame epoch = %d, want %d", f.Epoch, epochs)
	}
	// DropNewest: buffer holds the two earliest frames.
	if f := <-newest.Frames(); f.Epoch != 1 {
		t.Errorf("drop-newest first frame epoch = %d, want 1", f.Epoch)
	}
	if f := <-newest.Frames(); f.Epoch != 2 {
		t.Errorf("drop-newest second frame epoch = %d, want 2", f.Epoch)
	}
	if d := oldest.Dropped(); d != epochs-2 {
		t.Errorf("drop-oldest dropped = %d, want %d", d, epochs-2)
	}
	if d := newest.Dropped(); d != epochs-2 {
		t.Errorf("drop-newest dropped = %d, want %d", d, epochs-2)
	}
	if d := s.Stats().Dropped; d != 2*(epochs-2) {
		t.Errorf("total dropped = %d, want %d", d, 2*(epochs-2))
	}
}

func TestClose(t *testing.T) {
	s, err := New(Config{Ports: 4, Algorithm: "islip"})
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := s.Subscribe(1, DropOldest)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, ok := <-sub.Frames(); ok {
		t.Fatal("subscription open after scheduler Close")
	}
	if err := s.Offer(0, 1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Offer after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Step(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Step after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Subscribe(1, DropOldest); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
	sub.Close() // closing an already-closed subscription is fine
}

// TestSubscribeBufferBounds pins Subscribe's buffer contract: depths
// below 1 round up to 1, depths up to the cap are honoured, and anything
// larger is rejected with an error instead of reaching make — where a
// remote client's 1<<50 would panic the whole process.
func TestSubscribeBufferBounds(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip"})
	for _, tc := range []struct {
		buffer, wantCap int
	}{
		{0, 1},
		{1, 1},
		{maxSubscribeBuffer, maxSubscribeBuffer},
		{maxSubscribeBuffer + 1, 0},
		{1 << 50, 0},
	} {
		sub, err := s.Subscribe(tc.buffer, DropOldest)
		if tc.wantCap == 0 {
			if !errors.Is(err, errSubscribeBuffer) {
				t.Errorf("Subscribe(%d) = %v, want an errSubscribeBuffer error", tc.buffer, err)
			}
			if sub != nil {
				t.Errorf("Subscribe(%d) returned a subscription alongside its error", tc.buffer)
			}
			continue
		}
		if err != nil {
			t.Errorf("Subscribe(%d): %v", tc.buffer, err)
			continue
		}
		if got := cap(sub.ch); got != tc.wantCap {
			t.Errorf("Subscribe(%d) buffer = %d, want %d", tc.buffer, got, tc.wantCap)
		}
		sub.Close()
	}
	if st := s.Stats(); st.Subscribers != 0 {
		t.Fatalf("%d subscribers left registered, want 0", st.Subscribers)
	}
}

func TestRunContext(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip"})
	s.Offer(0, 1, 1e6)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, 100*time.Microsecond) }()
	deadline := time.After(5 * time.Second)
	for s.Epoch() < 3 {
		select {
		case <-deadline:
			t.Fatal("no epochs after 5s")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// Run again, stop via Close this time: returns nil.
	go func() { done <- s.Run(context.Background(), 100*time.Microsecond) }()
	time.Sleep(2 * time.Millisecond)
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("Run after Close = %v, want nil", err)
	}
	if err := s.Run(context.Background(), 0); err == nil {
		t.Fatal("non-positive interval accepted")
	}
}

// TestStepDeterminism pins the serve loop's reproducibility: identical
// configurations fed identical offer sequences produce identical frames.
func TestStepDeterminism(t *testing.T) {
	for _, alg := range []string{"islip", "greedy", "pim"} {
		run := func() []Frame {
			s := newTestScheduler(t, Config{Ports: 8, Algorithm: alg, Seed: 42, SlotBits: 500})
			var frames []Frame
			for e := 0; e < 50; e++ {
				s.Offer((e*3)%8, (e*5+1)%8, int64(100+e*37))
				f, err := s.Step()
				if err != nil {
					t.Fatal(err)
				}
				f.Match = f.Match.Clone()
				frames = append(frames, f)
			}
			return frames
		}
		a, b := run(), run()
		for i := range a {
			if a[i].Epoch != b[i].Epoch || a[i].ServedBits != b[i].ServedBits ||
				a[i].BacklogBits != b[i].BacklogBits || !a[i].Match.Equal(b[i].Match) {
				t.Fatalf("%s: frame %d diverged: %+v vs %+v", alg, i, a[i], b[i])
			}
		}
	}
}

// TestFramesAreValidMatchings: every published matching satisfies the
// crossbar constraint.
func TestFramesAreValidMatchings(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 8, Algorithm: "islip", SlotBits: 100})
	for e := 0; e < 20; e++ {
		for d := 1; d < 4; d++ {
			s.Offer(e%8, (e+d)%8, 300)
		}
		f, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Match.Validate(); err != nil {
			t.Fatalf("epoch %d: %v", f.Epoch, err)
		}
	}
}

// TestConcurrentOffers hammers the ingest path from many goroutines while
// the scheduler steps, then checks conservation: offered = served +
// backlog.
func TestConcurrentOffers(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 16, Algorithm: "islip", SlotBits: 1500 * 8})
	const producers = 8
	const offersEach = 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < offersEach; i++ {
				if err := s.Offer((p+i)%16, (p+i*7+1)%16, 1200); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	var stepErr error
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := s.Step(); err != nil {
					stepErr = err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	// Drain what's left.
	for s.Stats().BacklogBits > 0 {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	st := s.Stats()
	var wantOffered int64
	for p := 0; p < producers; p++ {
		for i := 0; i < offersEach; i++ {
			if (p+i)%16 != (p+i*7+1)%16 {
				wantOffered += 1200
			}
		}
	}
	if st.OfferedBits != wantOffered {
		t.Fatalf("offered = %d, want %d", st.OfferedBits, wantOffered)
	}
	if st.ServedBits != st.OfferedBits {
		t.Fatalf("conservation violated: offered %d, served %d, backlog %d",
			st.OfferedBits, st.ServedBits, st.BacklogBits)
	}
}

// TestStepOwnedFramesStable: StepOwned's matchings are caller-owned —
// later epochs never rewrite them, unlike Step's scratch frames.
func TestStepOwnedFramesStable(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip", SlotBits: 10})
	s.Offer(0, 1, 100)
	f1, err := s.StepOwned()
	if err != nil {
		t.Fatal(err)
	}
	want := f1.Match.Clone()
	s.Offer(2, 3, 100)
	s.Offer(0, 1, 0) // 0->1 is drained below; force a different matching
	for i := 0; i < 5; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !f1.Match.Equal(want) {
		t.Fatalf("owned frame rewritten by later epochs: %v, want %v", f1.Match, want)
	}
}

// TestStepFrameScratchContract documents that Step's matching is scratch:
// subscribers get clones that survive subsequent steps.
func TestStepFrameScratchContract(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip", SlotBits: 10})
	sub, _ := s.Subscribe(4, DropOldest)
	s.Offer(0, 1, 100)
	s.Step()
	s.Offer(2, 3, 100)
	s.Step()
	f1 := <-sub.Frames()
	f2 := <-sub.Frames()
	if f1.Match[0] != 1 {
		t.Fatalf("frame 1 match = %v", f1.Match)
	}
	if f2.Match[2] != 3 {
		t.Fatalf("frame 2 match = %v", f2.Match)
	}
	if &f1.Match[0] == &f2.Match[0] {
		t.Fatal("subscriber frames share backing storage")
	}
	var _ match.Matching = f1.Match
}
