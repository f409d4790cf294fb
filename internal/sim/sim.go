// Package sim is the discrete-event simulation kernel: a picosecond clock
// and an event queue with deterministic FIFO tie-breaking.
//
// The kernel is deliberately single-threaded. Hybrid-switch scheduling is a
// tightly coupled feedback loop (VOQ state -> demand -> schedule -> grants
// -> VOQ state); event-level parallelism would buy nothing and cost
// reproducibility. Parallelism belongs one level up, across independent
// simulation configurations — see internal/runner.
//
// The queue is a 4-ary min-heap of small value entries ordered by (time,
// sequence number); sifting compares contiguous memory and makes no
// interface calls. Callbacks live in an id-indexed slab recycled through a
// freelist, so the Schedule/Step hot path performs zero amortized heap
// allocations. Handles are generation-stamped: a handle to an event that
// has fired or been canceled goes stale, and canceling through a stale
// handle is a harmless no-op even after its slab slot has been reused.
//
// A Lane is a FIFO of events whose times never decrease, such as the
// packets in flight on one link. Only its head sits in the heap, under the
// head's own (time, sequence number), so the fire order is exactly the
// order the same events would have as separate At calls, while a link with
// thousands of packets in flight costs the heap one entry.
package sim

import (
	"fmt"

	"hybridsched/internal/units"
)

// entry is one queued event in the heap. Sequence numbers are unique, so
// (when, seq) is a total order and any correct heap pops the same order.
type entry struct {
	when units.Time
	seq  uint64
	id   int32 // slab slot holding the callback
}

func (a entry) before(b entry) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// slot is the slab storage behind an entry. Plain-event slots return to
// the freelist when their event fires or is canceled, and gen increments
// so stale Event handles can never touch a reused slot. A lane owns its
// slot for life.
type slot struct {
	fn   func()
	gen  uint64
	lane bool
}

// Event is a handle to a scheduled callback, returned by Schedule and At
// and consumed by Cancel. It is a small value: copy it freely. The zero
// Event is valid and refers to nothing.
type Event struct {
	id   int32
	gen  uint64 // slot generations start at 1, so the zero Event is stale
	when units.Time
}

// When returns the time the event was scheduled to fire.
func (e Event) When() units.Time { return e.when }

// Simulator owns the simulated clock and event queue. The zero value is a
// simulator at time zero, ready to use.
type Simulator struct {
	now       units.Time
	heap      []entry
	slots     []slot
	pos       []int32 // heap index of each queued slot id
	free      []int32 // ids of released plain-event slots
	seq       uint64
	pending   int // live events: plain ones plus every lane item
	processed uint64
	stopped   bool
}

// New returns a simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() units.Time { return s.now }

// Processed returns the number of events executed so far. Each lane item
// counts as one event.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of live events waiting in the queue, each
// lane item counted as one. Canceled events are removed eagerly and are
// never counted.
func (s *Simulator) Pending() int { return s.pending }

// alloc takes a slab slot for fn from the freelist, or grows the slab.
func (s *Simulator) alloc(fn func()) int32 {
	if k := len(s.free); k > 0 {
		id := s.free[k-1]
		s.free = s.free[:k-1]
		s.slots[id].fn = fn
		return id
	}
	id := int32(len(s.slots))
	s.slots = append(s.slots, slot{fn: fn, gen: 1})
	s.pos = append(s.pos, 0)
	return id
}

// release retires a plain-event slot to the freelist, invalidating every
// outstanding handle to it by bumping the generation.
func (s *Simulator) release(id int32) {
	sl := &s.slots[id]
	sl.fn = nil
	sl.gen++
	s.free = append(s.free, id)
}

// push queues e.
func (s *Simulator) push(e entry) {
	s.heap = append(s.heap, e)
	s.up(len(s.heap)-1, e)
}

// up moves e, destined for index i, toward the root until its parent is
// earlier.
func (s *Simulator) up(i int, e entry) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		s.pos[h[i].id] = int32(i)
		i = p
	}
	h[i] = e
	s.pos[e.id] = int32(i)
}

// down moves e, destined for index i, toward the leaves until no child is
// earlier. It returns e's final index.
func (s *Simulator) down(i int, e entry) int {
	h := s.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k, end := c+1, min(c+4, n); k < end; k++ {
			if h[k].before(h[m]) {
				m = k
			}
		}
		if !h[m].before(e) {
			break
		}
		h[i] = h[m]
		s.pos[h[i].id] = int32(i)
		i = m
	}
	h[i] = e
	s.pos[e.id] = int32(i)
	return i
}

// remove takes the entry at heap index i out of the queue.
func (s *Simulator) remove(i int) entry {
	h := s.heap
	e := h[i]
	last := len(h) - 1
	s.heap = h[:last]
	if i < last {
		if moved := h[last]; s.down(i, moved) == i && i > 0 {
			s.up(i, moved)
		}
	}
	return e
}

// Schedule runs fn after delay d. A non-positive delay schedules fn at the
// current time; it runs after all events already scheduled for this instant
// (FIFO within a timestamp).
func (s *Simulator) Schedule(d units.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// At runs fn at absolute time t. Scheduling in the past is a programming
// error and panics: silently reordering the past would corrupt causality.
func (s *Simulator) At(t units.Time, fn func()) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	id := s.alloc(fn)
	s.push(entry{when: t, seq: s.seq, id: id})
	s.seq++
	s.pending++
	return Event{id: id, gen: s.slots[id].gen, when: t}
}

// Cancel prevents e from firing and removes it from the queue immediately
// (Pending drops at once). Canceling an already-fired or already-canceled
// event, or the zero Event, is a harmless no-op: handles go stale when the
// event fires or is canceled, so a late Cancel can never hit an event that
// reused the same storage.
func (s *Simulator) Cancel(e Event) {
	if int(e.id) >= len(s.slots) || s.slots[e.id].gen != e.gen {
		return
	}
	s.remove(int(s.pos[e.id])) // a live plain event is always queued
	s.release(e.id)
	s.pending--
}

// Stop makes the current Run/RunUntil return after the current event
// completes. Pending events remain queued.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the single earliest pending event. It returns false when
// the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	e := s.remove(0)
	s.now = e.when
	sl := &s.slots[e.id]
	fn := sl.fn
	// Retire a plain event's slot before running the callback: the
	// callback may schedule new events (which reuse it under a fresh
	// generation) or cancel its own handle (now stale, a no-op). A lane
	// keeps its slot; its fire requeues the next item.
	if !sl.lane {
		s.release(e.id)
	}
	s.pending--
	s.processed++
	fn()
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to t. Events scheduled after t remain pending.
func (s *Simulator) RunUntil(t units.Time) {
	s.stopped = false
	for !s.stopped {
		if len(s.heap) == 0 || s.heap[0].when > t {
			break
		}
		s.Step()
	}
	if !s.stopped && t > s.now {
		s.now = t
	}
}

// Ticker invokes fn every period until canceled. It is the building block
// for clocked hardware models (the scheduling pipeline, slotted OCS
// schedules).
type Ticker struct {
	sim     *Simulator
	period  units.Duration
	fn      func()
	ev      Event
	stopped bool
}

// NewTicker starts a ticker whose first tick fires after one period.
// period must be positive.
func (s *Simulator) NewTicker(period units.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{sim: s, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.sim.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels the ticker. Stopping a ticker twice, or from inside its own
// tick callback, is safe.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.sim.Cancel(t.ev)
}
