package sim

import (
	"fmt"

	"hybridsched/internal/units"
)

// Lane is a FIFO of events with nondecreasing times, each delivering one
// value to the callback the lane was created with: the packets in flight
// on one link, for example. Only the lane's head is in the simulator's
// heap, queued under the head's own (time, sequence number), so events
// fire in exactly the order separate At calls would give them, while a
// lane holding thousands of events costs the heap one entry. Pending and
// Processed count each lane item as one event. Lane items cannot be
// canceled.
type Lane[T any] struct {
	sim  *Simulator
	fn   func(T)
	id   int32         // the lane's slab slot, owned for life
	buf  []laneItem[T] // ring buffer; len is zero or a power of two
	head int
	n    int
}

type laneItem[T any] struct {
	when units.Time
	seq  uint64
	v    T
}

// NewLane returns an empty lane on s whose events call fn.
func NewLane[T any](s *Simulator, fn func(T)) *Lane[T] {
	if fn == nil {
		panic("sim: lane with nil callback")
	}
	l := &Lane[T]{sim: s, fn: fn}
	l.id = s.alloc(l.fire)
	s.slots[l.id].lane = true
	return l
}

// At queues an event delivering v at absolute time t. It takes its place
// in the global FIFO order at the time of the call, exactly as Simulator.At
// would. A time before now, or before the lane's last queued event, is a
// programming error and panics.
func (l *Lane[T]) At(t units.Time, v T) {
	s := l.sim
	if t < s.now {
		panic(fmt.Sprintf("sim: lane event at %v before now %v", t, s.now))
	}
	if l.n > 0 {
		if tail := l.buf[(l.head+l.n-1)&(len(l.buf)-1)].when; t < tail {
			panic(fmt.Sprintf("sim: lane event at %v before the lane's last event at %v", t, tail))
		}
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = laneItem[T]{when: t, seq: s.seq, v: v}
	if l.n == 0 {
		s.push(entry{when: t, seq: s.seq, id: l.id})
	}
	l.n++
	s.seq++
	s.pending++
}

// grow doubles the ring, so its length never exceeds the larger of 8 and
// twice the most items the lane has held at once.
func (l *Lane[T]) grow() {
	buf := make([]laneItem[T], max(8, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.head+i)&(len(l.buf)-1)]
	}
	l.buf, l.head = buf, 0
}

// fire is the lane slot's callback: it takes the head item, queues the
// next one, then delivers the value.
func (l *Lane[T]) fire() {
	it := &l.buf[l.head]
	v := it.v
	var zero T
	it.v = zero // drop the reference the ring would otherwise keep alive
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n > 0 {
		next := &l.buf[l.head]
		l.sim.push(entry{when: next.when, seq: next.seq, id: l.id})
	}
	l.fn(v)
}
