package sim

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"

	"hybridsched/internal/rng"
	"hybridsched/internal/units"
)

// refSim is the reference kernel the queue is checked against: one
// container/heap entry per event, FIFO within a timestamp, eager Cancel.
// A reference lane is nothing but At calls, which is exactly the order a
// Lane must reproduce.
type refSim struct {
	now       units.Time
	queue     refHeap
	seq       uint64
	processed uint64
	stopped   bool
}

type refNode struct {
	when  units.Time
	seq   uint64
	fn    func()
	index int // -1 once fired or canceled
}

type refHeap []*refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	n := x.(*refNode)
	n.index = len(*h)
	*h = append(*h, n)
}
func (h *refHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	n.index = -1
	*h = old[:len(old)-1]
	return n
}

func (s *refSim) At(t units.Time, fn func()) *refNode {
	n := &refNode{when: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, n)
	return n
}

func (s *refSim) Cancel(n *refNode) {
	if n != nil && n.index >= 0 {
		heap.Remove(&s.queue, n.index)
	}
}

func (s *refSim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	n := heap.Pop(&s.queue).(*refNode)
	s.now = n.when
	s.processed++
	n.fn()
	return true
}

func (s *refSim) RunUntil(t units.Time) {
	s.stopped = false
	for !s.stopped && len(s.queue) > 0 && s.queue[0].when <= t {
		s.Step()
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
}

// world is the surface a random program drives: the kernel under test or
// the reference. Handles and lanes are addressed by index, so one program
// means the same thing in both.
type world interface {
	Now() units.Time
	Processed() uint64
	Pending() int
	Step() bool
	RunUntil(t units.Time)
	Stop()
	at(t units.Time, fn func())
	schedule(d units.Duration, fn func())
	cancel(h int) // h == -1 is the zero handle
	laneAt(l int, t units.Time, fn func())
	handles() int
}

type kernelWorld struct {
	*Simulator
	evs   []Event
	lanes []*Lane[func()]
}

func newKernelWorld(lanes int) *kernelWorld {
	w := &kernelWorld{Simulator: New()}
	for i := 0; i < lanes; i++ {
		w.lanes = append(w.lanes, NewLane(w.Simulator, func(fn func()) { fn() }))
	}
	return w
}

func (w *kernelWorld) at(t units.Time, fn func())           { w.evs = append(w.evs, w.At(t, fn)) }
func (w *kernelWorld) schedule(d units.Duration, fn func()) { w.evs = append(w.evs, w.Schedule(d, fn)) }
func (w *kernelWorld) laneAt(l int, t units.Time, fn func()) {
	w.lanes[l].At(t, fn)
}
func (w *kernelWorld) handles() int { return len(w.evs) }
func (w *kernelWorld) cancel(h int) {
	if h < 0 {
		w.Cancel(Event{})
		return
	}
	w.Cancel(w.evs[h])
}

type refWorld struct {
	refSim
	nodes []*refNode
}

func (w *refWorld) Now() units.Time   { return w.now }
func (w *refWorld) Processed() uint64 { return w.processed }
func (w *refWorld) Pending() int      { return len(w.queue) }
func (w *refWorld) Stop()             { w.stopped = true }
func (w *refWorld) at(t units.Time, fn func()) {
	w.nodes = append(w.nodes, w.At(t, fn))
}
func (w *refWorld) schedule(d units.Duration, fn func()) {
	w.at(w.now.Add(max(d, 0)), fn)
}
func (w *refWorld) laneAt(_ int, t units.Time, fn func()) { w.At(t, fn) }
func (w *refWorld) handles() int                          { return len(w.nodes) }
func (w *refWorld) cancel(h int) {
	if h >= 0 {
		w.Cancel(w.nodes[h])
	}
}

// program is one random program running in one world. Its choices come
// from its own generator, seeded alike in both worlds, and depend only on
// what the two worlds must agree on; so as long as they agree, both
// programs do exactly the same thing.
type program struct {
	w     world
	r     *rng.Rand
	fired []int
	tails []units.Time // each lane's last queued time
	label int
}

const programLanes = 3

func newProgram(w world, seed uint64) *program {
	return &program{w: w, r: rng.New(seed), tails: make([]units.Time, programLanes)}
}

// delay is short and often zero, so plain events and lane items of
// different lanes keep colliding on equal timestamps.
func (p *program) delay() units.Duration {
	return units.Duration(p.r.Intn(4)) * units.Nanosecond
}

// callback returns an event body that logs its label and sometimes adds
// events, cancels, or stops the run from inside the callback.
func (p *program) callback(depth int) func() {
	label := p.label
	p.label++
	return func() {
		p.fired = append(p.fired, label)
		if depth < 3 && p.r.Intn(3) == 0 {
			p.op(depth + 1)
		}
		if p.r.Intn(25) == 0 {
			p.w.Stop()
		}
	}
}

// op adds one random piece of work.
func (p *program) op(depth int) {
	now := p.w.Now()
	switch k := p.r.Intn(7); k {
	case 0:
		p.w.at(now.Add(p.delay()), p.callback(depth))
	case 1:
		p.w.schedule(p.delay()-units.Nanosecond, p.callback(depth))
	case 2:
		// Any handle ever issued, most of them stale by now, or the
		// zero handle.
		p.w.cancel(p.r.Intn(p.w.handles()+1) - 1)
	default:
		l := k % programLanes
		t := max(p.tails[l], now).Add(p.delay())
		p.tails[l] = t
		p.w.laneAt(l, t, p.callback(depth))
	}
}

// turn is one top-level action: add work, step, or run for a while.
func (p *program) turn() {
	switch k := p.r.Intn(10); {
	case k < 4:
		for n := 1 + p.r.Intn(4); n > 0; n-- {
			p.op(0)
		}
	case k < 8:
		p.w.Step()
	default:
		p.w.RunUntil(p.w.Now().Add(units.Duration(p.r.Intn(6)) * units.Nanosecond))
	}
}

func sameRun(a, b *program) error {
	if !slices.Equal(a.fired, b.fired) {
		return fmt.Errorf("fire order %v, reference %v", a.fired, b.fired)
	}
	if a.w.Now() != b.w.Now() || a.w.Processed() != b.w.Processed() || a.w.Pending() != b.w.Pending() {
		return fmt.Errorf("now/processed/pending %v/%d/%d, reference %v/%d/%d",
			a.w.Now(), a.w.Processed(), a.w.Pending(), b.w.Now(), b.w.Processed(), b.w.Pending())
	}
	return nil
}

// TestQueueMatchesReference drives random programs, mixing At, Schedule,
// Cancel through live and stale handles, lane events on several lanes,
// equal timestamps, work added from inside callbacks, RunUntil and Stop,
// through the kernel and through the one-entry-per-event container/heap
// reference, and requires the same fire order, clock, Processed and
// Pending after every action.
func TestQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		got := newProgram(newKernelWorld(programLanes), seed)
		want := newProgram(&refWorld{}, seed)
		for turn := 0; turn < 300; turn++ {
			got.turn()
			want.turn()
			if err := sameRun(got, want); err != nil {
				t.Fatalf("seed %d, turn %d: %v", seed, turn, err)
			}
		}
		for got.w.Step() {
		}
		for want.w.Step() {
		}
		if err := sameRun(got, want); err != nil {
			t.Fatalf("seed %d, drained: %v", seed, err)
		}
		if got.w.Pending() != 0 {
			t.Fatalf("seed %d: pending %d after draining", seed, got.w.Pending())
		}
	}
}

func TestLaneAtPanicsOutOfOrder(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	s := New()
	l := NewLane(s, func(int) {})
	l.At(units.Time(5*units.Nanosecond), 1)
	mustPanic("before the lane's tail", func() { l.At(units.Time(4*units.Nanosecond), 2) })
	l.At(units.Time(5*units.Nanosecond), 3) // equal to the tail is fine
	s.RunUntil(units.Time(10 * units.Nanosecond))
	mustPanic("before now, lane empty", func() { l.At(units.Time(9*units.Nanosecond), 4) })
	mustPanic("nil callback", func() { NewLane[int](s, nil) })
	if s.Pending() != 0 || s.Processed() != 2 {
		t.Fatalf("pending %d, processed %d; want 0, 2", s.Pending(), s.Processed())
	}
}

// TestLaneBufferBounded keeps a lane busy forever, never letting it
// drain, and checks its ring stays bounded by the items it holds rather
// than growing with every item ever added.
func TestLaneBufferBounded(t *testing.T) {
	const live = 50
	s := New()
	var got []int
	l := NewLane(s, func(v int) { got = append(got, v) })
	next := 0
	add := func() {
		l.At(s.Now().Add(live*units.Nanosecond), next)
		next++
	}
	for i := 0; i < live; i++ {
		add()
	}
	for i := 0; i < 100000; i++ {
		s.Step()
		add()
		if l.n != live || s.Pending() != live {
			t.Fatalf("step %d: lane holds %d, pending %d; want %d", i, l.n, s.Pending(), live)
		}
	}
	if len(l.buf) > 2*live {
		t.Fatalf("ring of %d slots for %d live items", len(l.buf), live)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d fired as %d", i, v)
		}
	}
}

// TestLaneRunUntilAndStop: lane heads obey RunUntil's horizon and Stop
// like any event; unfired items stay pending.
func TestLaneRunUntilAndStop(t *testing.T) {
	s := New()
	var order []string
	a := NewLane(s, func(v string) {
		order = append(order, v)
		if v == "a3" {
			s.Stop()
		}
	})
	b := NewLane(s, func(v string) { order = append(order, v) })
	for i := 1; i <= 4; i++ {
		at := units.Time(units.Duration(i) * units.Microsecond)
		a.At(at, fmt.Sprintf("a%d", i))
		b.At(at, fmt.Sprintf("b%d", i))
		s.At(at, func() { order = append(order, "p") })
	}
	s.RunUntil(units.Time(2 * units.Microsecond))
	if want := "[a1 b1 p a2 b2 p]"; fmt.Sprint(order) != want {
		t.Fatalf("order %v, want %s", order, want)
	}
	if s.Now() != units.Time(2*units.Microsecond) || s.Pending() != 6 {
		t.Fatalf("now %v, pending %d; want 2us, 6", s.Now(), s.Pending())
	}
	s.RunUntil(units.Time(10 * units.Microsecond))
	if want := "[a1 b1 p a2 b2 p a3]"; fmt.Sprint(order) != want {
		t.Fatalf("after Stop: order %v, want %s", order, want)
	}
	if s.Now() != units.Time(3*units.Microsecond) || s.Pending() != 5 {
		t.Fatalf("after Stop: now %v, pending %d; want 3us, 5", s.Now(), s.Pending())
	}
	s.Run()
	if len(order) != 12 || s.Processed() != 12 || s.Pending() != 0 {
		t.Fatalf("after Run: %d fired, processed %d, pending %d", len(order), s.Processed(), s.Pending())
	}
}
