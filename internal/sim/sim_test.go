package sim

import (
	"testing"
	"testing/quick"

	"hybridsched/internal/rng"
	"hybridsched/internal/units"
)

func TestOrderingByTime(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3*units.Nanosecond, func() { order = append(order, 3) })
	s.Schedule(1*units.Nanosecond, func() { order = append(order, 1) })
	s.Schedule(2*units.Nanosecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != units.Time(3*units.Nanosecond) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestFIFOWithinTimestamp(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(units.Nanosecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var fired []units.Time
	s.Schedule(units.Nanosecond, func() {
		fired = append(fired, s.Now())
		s.Schedule(units.Nanosecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 2 || fired[1] != units.Time(2*units.Nanosecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestScheduleAtCurrentInstantRunsAfterQueued(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(0, func() {
		order = append(order, "a")
		s.Schedule(0, func() { order = append(order, "c") })
	})
	s.Schedule(0, func() { order = append(order, "b") })
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(-5, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New()
	s.Schedule(10*units.Nanosecond, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	s.At(units.Time(units.Nanosecond), func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	s.Schedule(0, nil)
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	e := s.Schedule(units.Nanosecond, func() { ran = true })
	s.Cancel(e)
	s.Cancel(e)       // double-cancel is fine
	s.Cancel(Event{}) // so is canceling the zero handle
	s.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if s.Processed() != 0 {
		t.Fatalf("processed = %d", s.Processed())
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var got []int
	var evs []Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, s.Schedule(units.Duration(i+1)*units.Nanosecond, func() {
			got = append(got, i)
		}))
	}
	s.Cancel(evs[2])
	s.Run()
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
	for _, v := range got {
		if v == 2 {
			t.Fatal("canceled event fired")
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired int
	for i := 1; i <= 10; i++ {
		s.Schedule(units.Duration(i)*units.Microsecond, func() { fired++ })
	}
	s.RunUntil(units.Time(5 * units.Microsecond))
	if fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if s.Now() != units.Time(5*units.Microsecond) {
		t.Fatalf("now = %v", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run()
	if fired != 10 {
		t.Fatalf("after Run fired = %d", fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	s := New()
	s.RunUntil(units.Time(units.Millisecond))
	if s.Now() != units.Time(units.Millisecond) {
		t.Fatalf("now = %v", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(units.Duration(i)*units.Nanosecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	s.Run() // resume
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var ticks []units.Time
	var tk *Ticker
	tk = s.NewTicker(10*units.Nanosecond, func() {
		ticks = append(ticks, s.Now())
		if len(ticks) == 5 {
			tk.Stop()
		}
	})
	s.Run()
	if len(ticks) != 5 {
		t.Fatalf("ticks = %v", ticks)
	}
	for i, tt := range ticks {
		want := units.Time(units.Duration(i+1) * 10 * units.Nanosecond)
		if tt != want {
			t.Fatalf("tick %d at %v, want %v", i, tt, want)
		}
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.NewTicker(0, func() {})
}

// TestHeapOrderProperty drives the kernel with random schedules and
// verifies global time-ordering of execution.
func TestHeapOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := New()
		var times []units.Time
		n := 50 + r.Intn(200)
		for i := 0; i < n; i++ {
			d := units.Duration(r.Int63n(int64(units.Millisecond)))
			s.Schedule(d, func() { times = append(times, s.Now()) })
		}
		s.Run()
		if len(times) != n {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPendingExcludesCanceled is the regression test for queue-depth
// overcounting: canceled events must leave the queue (and the Pending
// count) immediately, not linger until drained.
func TestPendingExcludesCanceled(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 5; i++ {
		evs = append(evs, s.Schedule(units.Duration(i+1)*units.Nanosecond, func() {}))
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", s.Pending())
	}
	s.Cancel(evs[2])
	if s.Pending() != 4 {
		t.Fatalf("pending after one cancel = %d, want 4", s.Pending())
	}
	s.Cancel(evs[2]) // double-cancel must not double-decrement
	if s.Pending() != 4 {
		t.Fatalf("pending after double cancel = %d, want 4", s.Pending())
	}
	for _, e := range evs {
		s.Cancel(e)
	}
	if s.Pending() != 0 {
		t.Fatalf("pending after canceling all = %d, want 0", s.Pending())
	}
}

// TestCancelThenRun: a queue whose events are all canceled before Run must
// execute nothing and leave the clock untouched.
func TestCancelThenRun(t *testing.T) {
	s := New()
	fired := 0
	var evs []Event
	for i := 0; i < 10; i++ {
		evs = append(evs, s.Schedule(units.Duration(i+1)*units.Nanosecond, func() { fired++ }))
	}
	for _, e := range evs {
		s.Cancel(e)
	}
	s.Run()
	if fired != 0 || s.Processed() != 0 {
		t.Fatalf("fired = %d, processed = %d, want 0, 0", fired, s.Processed())
	}
	if s.Now() != 0 {
		t.Fatalf("now = %v, want 0", s.Now())
	}
}

// TestRunUntilAllCanceled: RunUntil over a fully-canceled queue must still
// advance the clock to the target time.
func TestRunUntilAllCanceled(t *testing.T) {
	s := New()
	var evs []Event
	for i := 0; i < 5; i++ {
		evs = append(evs, s.Schedule(units.Duration(i+1)*units.Microsecond, func() {
			t.Fatal("canceled event fired")
		}))
	}
	for _, e := range evs {
		s.Cancel(e)
	}
	s.RunUntil(units.Time(3 * units.Microsecond))
	if s.Now() != units.Time(3*units.Microsecond) {
		t.Fatalf("now = %v, want 3us", s.Now())
	}
}

// TestTickerStopInsideOwnTick: stopping a ticker from its own callback
// (including stopping it twice) must not fire further ticks and must not
// cancel unrelated events that recycled the tick's storage.
func TestTickerStopInsideOwnTick(t *testing.T) {
	s := New()
	ticks := 0
	bystander := false
	var tk *Ticker
	tk = s.NewTicker(10*units.Nanosecond, func() {
		ticks++
		if ticks == 3 {
			tk.Stop()
			tk.Stop() // double-stop is safe
			// Scheduled after Stop: likely reuses the freed tick node;
			// the ticker's stale handle must not be able to kill it.
			s.Schedule(units.Nanosecond, func() { bystander = true })
			tk.Stop()
		}
	})
	s.Run()
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if !bystander {
		t.Fatal("event scheduled after Ticker.Stop was lost")
	}
}

// TestStaleHandleCancelIsNoOp: once an event fires, its handle is stale; a
// late Cancel through it must not touch whichever event reused the node.
func TestStaleHandleCancelIsNoOp(t *testing.T) {
	s := New()
	first := s.Schedule(units.Nanosecond, func() {})
	s.Run()
	second := s.Schedule(units.Nanosecond, func() {})
	s.Cancel(first) // stale: must not cancel second
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (stale cancel removed a live event)", s.Pending())
	}
	ran := false
	_ = second
	s.slots[s.heap[0].id].fn = func() { ran = true }
	s.Run()
	if !ran {
		t.Fatal("live event did not run after stale cancel")
	}
}

// TestFIFODeterminismWithFreelistReuse drives several waves of
// schedule/fire/cancel so that nodes are heavily recycled, and verifies
// same-timestamp FIFO ordering holds in every wave.
func TestFIFODeterminismWithFreelistReuse(t *testing.T) {
	s := New()
	for wave := 0; wave < 20; wave++ {
		var order []int
		var evs []Event
		base := units.Duration(wave+1) * units.Microsecond
		for i := 0; i < 16; i++ {
			i := i
			evs = append(evs, s.Schedule(base, func() { order = append(order, i) }))
		}
		// Cancel every third event; survivors must still fire in
		// submission order despite the heap churn and node reuse.
		for i := 0; i < len(evs); i += 3 {
			s.Cancel(evs[i])
		}
		s.Run()
		want := -1
		for _, v := range order {
			if v%3 == 0 {
				t.Fatalf("wave %d: canceled event %d fired", wave, v)
			}
			if v <= want {
				t.Fatalf("wave %d: same-time events reordered: %v", wave, order)
			}
			want = v
		}
		if len(order) != 16-6 {
			t.Fatalf("wave %d: fired %d events, want 10", wave, len(order))
		}
	}
}

// TestEventWhen: the handle remembers its scheduled time, even after the
// event fires and its storage is recycled.
func TestEventWhen(t *testing.T) {
	s := New()
	e := s.Schedule(7*units.Nanosecond, func() {})
	if e.When() != units.Time(7*units.Nanosecond) {
		t.Fatalf("When = %v", e.When())
	}
	s.Run()
	if e.When() != units.Time(7*units.Nanosecond) {
		t.Fatalf("When after fire = %v", e.When())
	}
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(units.Nanosecond, func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Fatalf("processed = %d", s.Processed())
	}
}
