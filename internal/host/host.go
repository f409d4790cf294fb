// Package host models end hosts for the paper's *slow scheduling* regime
// (Figure 1, top): when the switch cannot buffer a reconfiguration's worth
// of traffic, "packets stored in the host can be passed to the switch only
// at appropriate times, upon a grant from the scheduler". Hosts keep
// per-destination queues, release packets only against grants, and pay the
// host<->switch link latency both for requests and for released data — the
// synchronization burden §2 describes.
package host

import (
	"hybridsched/internal/packet"
	"hybridsched/internal/sim"
	"hybridsched/internal/units"
	"hybridsched/internal/voq"
)

// Config parameterizes the host bank.
type Config struct {
	Ports      int
	NICRate    units.BitRate  // host uplink serialization rate
	LinkDelay  units.Duration // one-way host<->switch propagation
	QueueLimit units.Size     // per-destination queue limit (0 = unlimited)
}

// Bank models all hosts attached to one switch: host i holds a queue per
// destination j.
type Bank struct {
	sim    *sim.Simulator
	queues *voq.Bank
	nic    *Uplink[*packet.Packet]
}

// New returns an idle host bank whose released packets reach the switch
// through arrive. notify (optional) fires on queue empty/non-empty
// transitions — the host-side scheduling requests.
func New(s *sim.Simulator, cfg Config, notify voq.Notify, arrive func(p *packet.Packet)) *Bank {
	if cfg.Ports <= 0 {
		panic("host: Ports must be positive")
	}
	if cfg.NICRate <= 0 {
		panic("host: NICRate must be positive")
	}
	return &Bank{
		sim:    s,
		queues: voq.NewBank(cfg.Ports, cfg.QueueLimit, notify),
		nic:    NewUplink(s, cfg.Ports, cfg.NICRate, cfg.LinkDelay, arrive),
	}
}

// Enqueue buffers p at its source host. It returns false on tail-drop.
func (b *Bank) Enqueue(t units.Time, p *packet.Packet) bool {
	return b.queues.Enqueue(t, p)
}

// Backlog returns queued bits from host in to destination out.
func (b *Bank) Backlog(in, out packet.Port) units.Size {
	return b.queues.Queue(in, out).Bits()
}

// TotalBits returns the aggregate host-side backlog.
func (b *Bank) TotalBits() units.Size { return b.queues.TotalBits() }

// PeakBits returns the aggregate host-buffering high-water mark — the
// Figure 1 "host buffering" measurement.
func (b *Bank) PeakBits() units.Size { return b.queues.PeakBits() }

// Drops returns tail-dropped packets across all host queues.
func (b *Bank) Drops() int64 { return b.queues.Drops() }

// Queues exposes the underlying bank for demand estimation.
func (b *Bank) Queues() *voq.Bank { return b.queues }

// Release dequeues up to budget bits from host in's queue to out and
// transmits them over the host uplink: each packet serializes at NICRate
// (the NIC is shared across destinations, so releases on one host are
// serialized) and reaches the switch one LinkDelay later through the
// bank's arrive callback. It returns the number of bits released.
//
// Release is called when the grant reaches the host; the caller is
// responsible for having delayed it by the grant propagation time.
func (b *Bank) Release(in, out packet.Port, budget units.Size) units.Size {
	var released units.Size
	for _, p := range b.queues.DequeueUpTo(b.sim.Now(), in, out, budget) {
		b.nic.Send(in, p.Size, p)
		released += p.Size
	}
	return released
}

// Uplink models the hosts' access links to the switch: each host's NIC
// serializes what it sends back to back at the link rate, and each packet
// reaches the switch one link delay after its last bit leaves, in the
// order sent. A host's packets in flight share one sim.Lane, so a long
// backlog costs the event queue one entry, not one per packet. T is what
// the arrival callback receives.
type Uplink[T any] struct {
	sim    *sim.Simulator
	rate   units.BitRate
	delay  units.Duration
	arrive func(T)
	busy   []units.Time   // when each NIC finishes what it has queued
	lanes  []*sim.Lane[T] // created on a host's first send
}

// NewUplink returns idle uplinks for ports hosts on s.
func NewUplink[T any](s *sim.Simulator, ports int, rate units.BitRate, delay units.Duration, arrive func(T)) *Uplink[T] {
	return &Uplink[T]{
		sim:    s,
		rate:   rate,
		delay:  delay,
		arrive: arrive,
		busy:   make([]units.Time, ports),
		lanes:  make([]*sim.Lane[T], ports),
	}
}

// Send transmits a packet of the given size from host src after
// everything src has already sent; v reaches the arrival callback when
// the packet lands at the switch.
func (u *Uplink[T]) Send(src packet.Port, size units.Size, v T) {
	start := max(u.busy[src], u.sim.Now())
	u.busy[src] = start.Add(units.TransmitTime(size, u.rate))
	if u.lanes[src] == nil {
		u.lanes[src] = sim.NewLane(u.sim, u.arrive)
	}
	u.lanes[src].At(u.busy[src].Add(u.delay), v)
}
