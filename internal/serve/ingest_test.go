package serve

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"hybridsched/internal/demand"
	"hybridsched/internal/match"
	"hybridsched/internal/trace"
)

// TestOfferOverflowRejected is the reproducer of the wrapped-backlog
// defect: two offers of MaxInt64/2+1 bits used to wrap the cell negative,
// which clamped it to zero and lost all the demand. The second offer must
// now fail with ErrOverflow and leave the books as the first one left
// them.
func TestOfferOverflowRejected(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip"})
	const half = math.MaxInt64/2 + 1
	if err := s.Offer(0, 1, half); err != nil {
		t.Fatal(err)
	}
	if err := s.Offer(0, 1, half); !errors.Is(err, ErrOverflow) {
		t.Fatalf("second Offer = %v, want ErrOverflow", err)
	}
	st := s.Stats()
	if st.OfferedBits != half || st.BacklogBits != half {
		t.Fatalf("offered %d backlog %d, want both %d", st.OfferedBits, st.BacklogBits, int64(half))
	}
	// Any cell counts against the one backlog bound, not just the full one.
	if err := s.Offer(2, 3, half); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Offer on another cell = %v, want ErrOverflow", err)
	}
	f, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if f.ServedBits != DefaultSlotBits || f.BacklogBits != half-DefaultSlotBits {
		t.Fatalf("frame served %d backlog %d, want %d and %d",
			f.ServedBits, f.BacklogBits, DefaultSlotBits, int64(half)-DefaultSlotBits)
	}
	// The freed room is offerable again, exactly up to MaxInt64.
	if err := s.Offer(2, 3, math.MaxInt64-f.BacklogBits); err != nil {
		t.Fatalf("Offer filling the backlog to MaxInt64: %v", err)
	}
	if err := s.Offer(1, 0, 1); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Offer past MaxInt64 = %v, want ErrOverflow", err)
	}
}

// TestOfferRecordsOverflowRejected: a batch that would overflow the
// backlog fails as a whole and offers nothing.
func TestOfferRecordsOverflowRejected(t *testing.T) {
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip"})
	if err := s.Offer(0, 1, math.MaxInt64-100); err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		{Src: 1, Dst: 2, Size: 60},
		{Src: 2, Dst: 2, Size: math.MaxUint32}, // self-traffic: never counted
		{Src: 2, Dst: 3, Size: 60},
	}
	if err := s.OfferRecords(recs); !errors.Is(err, ErrOverflow) {
		t.Fatalf("OfferRecords = %v, want ErrOverflow", err)
	}
	st := s.Stats()
	if st.OfferedBits != math.MaxInt64-100 || st.BacklogBits != math.MaxInt64-100 {
		t.Fatalf("failed batch changed the books: offered %d backlog %d", st.OfferedBits, st.BacklogBits)
	}
	if err := s.OfferRecords(recs[:2]); err != nil {
		t.Fatalf("batch that fits: %v", err)
	}
	if st := s.Stats(); st.BacklogBits != math.MaxInt64-40 {
		t.Fatalf("backlog %d, want %d", st.BacklogBits, int64(math.MaxInt64-40))
	}
}

// burstSource offers its list once, on the first Advance.
type burstSource struct {
	offers [][3]int64
	done   bool
}

func (b *burstSource) Advance(offer func(src, dst int, bits int64)) {
	if b.done {
		return
	}
	b.done = true
	for _, o := range b.offers {
		offer(int(o[0]), int(o[1]), o[2])
	}
}

// TestSourceOverflowDropped: Source.Advance has no error return, so an
// offer that would overflow the backlog is dropped and the rest of the
// epoch's offers still land.
func TestSourceOverflowDropped(t *testing.T) {
	src := &burstSource{offers: [][3]int64{
		{0, 1, math.MaxInt64 - 10},
		{1, 2, 11}, // would overflow: dropped
		{2, 3, 10},
	}}
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "islip", SlotBits: 5, Source: src})
	f, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.OfferedBits != math.MaxInt64 {
		t.Fatalf("offered %d, want MaxInt64", st.OfferedBits)
	}
	if st.OfferedBits != st.ServedBits+st.BacklogBits || f.BacklogBits != st.BacklogBits {
		t.Fatalf("books: offered %d served %d backlog %d (frame backlog %d)",
			st.OfferedBits, st.ServedBits, st.BacklogBits, f.BacklogBits)
	}
}

// midEpochHook, when set, runs inside the "serve-test-midepoch"
// algorithm's Schedule: a producer that arrives while the kernel runs.
var midEpochHook func()

// midEpochAlg is iSLIP with midEpochHook called before it schedules.
type midEpochAlg struct{ match.Algorithm }

func (a midEpochAlg) Schedule(d *demand.Matrix) match.Matching {
	if midEpochHook != nil {
		midEpochHook()
	}
	return a.Algorithm.Schedule(d)
}

var registerMidEpoch sync.Once

// TestOfferDuringSchedule: an offer that arrives while the algorithm runs
// is not drained in that epoch, is counted in that frame's backlog, and
// is served next epoch.
func TestOfferDuringSchedule(t *testing.T) {
	registerMidEpoch.Do(func() {
		match.Register("serve-test-midepoch", func(n int, seed uint64) match.Algorithm {
			inner, err := match.New("islip", n, seed)
			if err != nil {
				panic(err)
			}
			return midEpochAlg{inner}
		})
	})
	s := newTestScheduler(t, Config{Ports: 4, Algorithm: "serve-test-midepoch", SlotBits: 1000})
	if err := s.Offer(0, 1, 500); err != nil {
		t.Fatal(err)
	}
	midEpochHook = func() {
		midEpochHook = nil
		// One offer on the cell being served, one on a cell the kernel
		// has not seen.
		if err := s.Offer(0, 1, 300); err != nil {
			t.Error(err)
		}
		if err := s.Offer(2, 3, 700); err != nil {
			t.Error(err)
		}
	}
	defer func() { midEpochHook = nil }()

	f, err := s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if f.Match[0] != 1 || f.Match[2] != match.Unmatched {
		t.Fatalf("epoch 1 matching %v, want 0->1 only", f.Match)
	}
	if f.ServedBits != 500 || f.BacklogBits != 1000 {
		t.Fatalf("epoch 1 served %d backlog %d, want 500 and 1000", f.ServedBits, f.BacklogBits)
	}
	f, err = s.Step()
	if err != nil {
		t.Fatal(err)
	}
	if f.Match[0] != 1 || f.Match[2] != 3 {
		t.Fatalf("epoch 2 matching %v, want 0->1 and 2->3", f.Match)
	}
	if f.ServedBits != 1000 || f.BacklogBits != 0 {
		t.Fatalf("epoch 2 served %d backlog %d, want 1000 and 0", f.ServedBits, f.BacklogBits)
	}
}

// TestConcurrentIngestStepStatsSnapshot runs producers against a stepping
// goroutine, a Stats reader and a snapshotter (under -race in make
// race-smoke). Every Stats read is a consistent cut; afterwards the books
// balance and the checkpoint round-trips byte-identical.
func TestConcurrentIngestStepStatsSnapshot(t *testing.T) {
	const n = 16
	s := newTestScheduler(t, Config{Ports: n, Algorithm: "islip", SlotBits: 1500 * 8})
	const producers, offersEach = 4, 2000
	var stop atomic.Bool
	var bg sync.WaitGroup
	bg.Add(3)
	go func() {
		defer bg.Done()
		for !stop.Load() {
			if _, err := s.Step(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer bg.Done()
		for !stop.Load() {
			st := s.Stats()
			if st.OfferedBits != st.ServedBits+st.BacklogBits || st.BacklogBits < 0 || st.ServedBits < 0 {
				t.Errorf("inconsistent stats: offered %d served %d backlog %d",
					st.OfferedBits, st.ServedBits, st.BacklogBits)
				return
			}
		}
	}()
	go func() {
		defer bg.Done()
		var buf bytes.Buffer
		for !stop.Load() {
			buf.Reset()
			if err := s.Snapshot(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < offersEach; i++ {
				var err error
				if i%10 == 0 {
					err = s.OfferRecords([]trace.Record{{Src: uint16(p), Dst: uint16((p + i) % n), Size: 900}})
				} else {
					err = s.Offer((p+i)%n, (p+3*i+1)%n, 1200)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	stop.Store(true)
	bg.Wait()

	st := s.Stats()
	if st.OfferedBits != st.ServedBits+st.BacklogBits {
		t.Fatalf("offered %d != served %d + backlog %d", st.OfferedBits, st.ServedBits, st.BacklogBits)
	}
	var snap bytes.Buffer
	if err := s.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	r := newTestScheduler(t, Config{Ports: n, Algorithm: "islip", SlotBits: 1500 * 8})
	if err := r.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := r.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatal("restore -> snapshot is not byte-identical")
	}
	if got := r.Stats(); got.BacklogBits != st.BacklogBits || got.Epochs != st.Epochs {
		t.Fatalf("restored backlog %d epochs %d, want %d and %d",
			got.BacklogBits, got.Epochs, st.BacklogBits, st.Epochs)
	}
}
