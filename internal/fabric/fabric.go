// Package fabric assembles the full hybrid switch of Figure 2: hosts on
// access links, processing logic (classifier + VOQs), scheduling logic
// (internal/sched with a pluggable algorithm), and switching logic (OCS +
// EPS side by side). It implements both buffering regimes of Figure 1 —
// packets buffered at the switch (fast scheduling) or held at the hosts
// and released on grants (slow scheduling) — and collects every metric the
// experiments report.
package fabric

import (
	"fmt"
	"slices"

	"hybridsched/internal/classify"
	"hybridsched/internal/demand"
	"hybridsched/internal/eps"
	"hybridsched/internal/host"
	"hybridsched/internal/match"
	"hybridsched/internal/ocs"
	"hybridsched/internal/packet"
	"hybridsched/internal/sched"
	"hybridsched/internal/sim"
	"hybridsched/internal/stats"
	"hybridsched/internal/units"
	"hybridsched/internal/voq"
)

// BufferPlacement selects the Figure 1 regime.
type BufferPlacement uint8

// BufferPlacement values.
const (
	// BufferAtSwitch is fast scheduling: hosts forward immediately and
	// the ToR's VOQs absorb reconfiguration dead-time.
	BufferAtSwitch BufferPlacement = iota
	// BufferAtHost is slow scheduling: OCS-bound packets wait in host
	// queues and move only on grants.
	BufferAtHost
)

func (b BufferPlacement) String() string {
	if b == BufferAtHost {
		return "host"
	}
	return "switch"
}

// Config parameterizes the fabric.
type Config struct {
	Ports    int
	LineRate units.BitRate // host links and OCS circuit rate
	// LinkDelay is the one-way host<->switch propagation delay.
	LinkDelay units.Duration

	// Slot is the scheduler's transmission window per configuration.
	Slot units.Duration
	// ReconfigTime is the OCS dead-time (the Figure 1 sweep variable).
	ReconfigTime units.Duration

	// Algorithm names a registered matching algorithm.
	Algorithm string
	Seed      uint64
	// Timing selects hardware or software scheduler timing. Required.
	Timing sched.TimingModel
	// Pipelined overlaps schedule computation with transmission.
	Pipelined bool
	// Estimator supplies demand estimates. If nil, an occupancy
	// estimator is used.
	Estimator demand.Estimator

	Buffer BufferPlacement
	// VOQLimit bounds each switch VOQ (0 = unlimited): the ToR memory of
	// Figure 1.
	VOQLimit units.Size
	// HostQueueLimit bounds each per-destination host queue.
	HostQueueLimit units.Size

	// EnableEPS adds the electrical packet switch for residual traffic.
	EnableEPS bool
	// EPSRate is the EPS drain rate per output (defaults to LineRate/10).
	EPSRate units.BitRate
	// EPSQueueLimit bounds EPS output queues (0 = unlimited).
	EPSQueueLimit units.Size
	// EPSFabricLatency is the EPS store-and-forward latency.
	EPSFabricLatency units.Duration

	// Rules configure the look-up table; if empty, every packet is Auto
	// (OCS-eligible). With EnableEPS and empty Rules, the elephant
	// threshold default is installed.
	Rules []classify.Rule
	// ResidualTimeout shunts Auto traffic whose head-of-line age exceeds
	// this to the EPS at grant time (0 = off). This is the "residual
	// traffic can be sent through the EPS" mechanism.
	ResidualTimeout units.Duration
}

func (c *Config) fillDefaults() error {
	if c.Ports < 2 {
		return fmt.Errorf("fabric: need at least 2 ports")
	}
	if c.LineRate <= 0 {
		return fmt.Errorf("fabric: LineRate must be positive")
	}
	if c.Slot <= 0 {
		return fmt.Errorf("fabric: Slot must be positive")
	}
	if c.ReconfigTime < 0 {
		return fmt.Errorf("fabric: negative ReconfigTime")
	}
	if c.Algorithm == "" {
		c.Algorithm = "islip"
	}
	if c.Timing == nil {
		return fmt.Errorf("fabric: Timing model is required")
	}
	if c.EnableEPS && c.EPSRate == 0 {
		c.EPSRate = c.LineRate / 10
	}
	return nil
}

// Validate checks the configuration the way New would, without building a
// fabric: it applies the same defaulting rules to a copy and additionally
// resolves the algorithm name against the registry. It is how the public
// scenario builder validates eagerly.
func (c Config) Validate() error {
	if err := c.fillDefaults(); err != nil {
		return err
	}
	if !match.Known(c.Algorithm) {
		return fmt.Errorf("fabric: unknown algorithm %q (have %v)", c.Algorithm, match.Names())
	}
	return nil
}

// Fabric is an assembled hybrid switch. Create with New.
type Fabric struct {
	sim *sim.Simulator
	cfg Config

	table *classify.Table
	voqs  *voq.Bank
	hosts *host.Bank
	ocsSw *ocs.Switch
	epsSw *eps.Switch
	est   demand.Estimator
	loop  *sched.Loop

	uplink  *host.Uplink[arrival] // fast-regime host uplinks
	residue []int32               // shuntResidue scratch: nonempty VOQ indices

	injected      stats.Counter
	injectedBits  stats.Counter
	delivered     stats.Counter
	deliveredBits stats.Counter
	dropsClassify stats.Counter
	missedCircuit stats.Counter
	shunted       stats.Counter

	latAll  stats.Histogram
	latMice stats.Histogram
	latOCS  stats.Histogram
	latEPS  stats.Histogram

	onDeliver func(p *packet.Packet) // optional test hook
}

// New assembles a fabric on the given simulator.
func New(s *sim.Simulator, cfg Config) (*Fabric, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	alg, err := match.New(cfg.Algorithm, cfg.Ports, cfg.Seed)
	if err != nil {
		return nil, err
	}
	f := &Fabric{sim: s, cfg: cfg}
	f.uplink = host.NewUplink(s, cfg.Ports, cfg.LineRate, cfg.LinkDelay, func(a arrival) {
		f.arriveAtSwitch(a.p, a.epsBound)
	})

	def := classify.Action{Hint: classify.Auto}
	f.table = classify.New(def)
	rules := cfg.Rules
	if len(rules) == 0 && cfg.EnableEPS {
		rules = classify.ElephantThresholdRules(1500 * units.Byte)
	}
	for _, r := range rules {
		f.table.Add(r)
	}

	f.voqs = voq.NewBank(cfg.Ports, cfg.VOQLimit, nil)
	f.hosts = host.New(s, host.Config{
		Ports:      cfg.Ports,
		NICRate:    cfg.LineRate,
		LinkDelay:  cfg.LinkDelay,
		QueueLimit: cfg.HostQueueLimit,
	}, nil, func(p *packet.Packet) { f.arriveAtSwitch(p, false) })

	f.ocsSw = ocs.New(s, ocs.Config{
		Ports:        cfg.Ports,
		PortRate:     cfg.LineRate,
		ReconfigTime: cfg.ReconfigTime,
		PropDelay:    0,
	}, f.deliver)

	if cfg.EnableEPS {
		f.epsSw = eps.New(s, eps.Config{
			Ports:         cfg.Ports,
			PortRate:      cfg.EPSRate,
			FabricLatency: cfg.EPSFabricLatency,
			QueueLimit:    cfg.EPSQueueLimit,
		}, f.deliver)
	}

	f.est = cfg.Estimator
	if f.est == nil {
		f.est = demand.NewOccupancy(cfg.Ports)
	}

	f.loop = sched.NewLoop(s, sched.LoopConfig{
		Ports:     cfg.Ports,
		Slot:      cfg.Slot,
		Pipelined: cfg.Pipelined,
	}, alg, cfg.Timing, sched.Hooks{
		Snapshot:  f.snapshot,
		Configure: f.configure,
		Grant:     f.grant,
	})
	return f, nil
}

// Start begins the scheduling loop.
func (f *Fabric) Start() { f.loop.Start() }

// Stop halts the scheduling loop.
func (f *Fabric) Stop() { f.loop.Stop() }

// Sim returns the simulator the fabric runs on.
func (f *Fabric) Sim() *sim.Simulator { return f.sim }

// SetDeliverHook installs a per-delivery callback for tests and examples.
func (f *Fabric) SetDeliverHook(fn func(p *packet.Packet)) { f.onDeliver = fn }

// Table exposes the look-up table for runtime reconfiguration (the
// platform register interface writes through this).
func (f *Fabric) Table() *classify.Table { return f.table }

// Inject introduces p at its source host at the current simulated time.
// This is the entry point traffic generators feed.
func (f *Fabric) Inject(p *packet.Packet) {
	now := f.sim.Now()
	if p.CreatedAt == 0 {
		p.CreatedAt = now
	}
	f.injected.Inc()
	f.injectedBits.Add(int64(p.Size))

	act := f.table.Classify(p)
	if act.Drop {
		f.dropsClassify.Inc()
		return
	}
	epsBound := act.Hint == classify.EPSOnly && f.epsSw != nil
	if f.cfg.Buffer == BufferAtHost && !epsBound {
		// Slow regime: OCS-bound traffic waits at the host for a grant.
		// The scheduler learns of it one request latency later.
		if f.hosts.Enqueue(now, p) {
			f.observeLater(p)
		}
		return
	}
	// Fast regime (or EPS-bound traffic in either regime): forward over
	// the access link immediately.
	f.uplink.Send(p.Src, p.Size, arrival{p, epsBound})
}

// arrival is a packet in flight on a fast-regime host uplink.
type arrival struct {
	p        *packet.Packet
	epsBound bool
}

// observeLater reports new demand to the estimator after the request
// latency of the timing model.
func (f *Fabric) observeLater(p *packet.Packet) {
	in, out, bits := int(p.Src), int(p.Dst), int64(p.Size)
	f.sim.Schedule(f.cfg.Timing.RequestLatency(), func() {
		f.est.Observe(f.sim.Now(), in, out, bits)
	})
}

// arriveAtSwitch lands p at the ToR ingress.
func (f *Fabric) arriveAtSwitch(p *packet.Packet, epsBound bool) {
	now := f.sim.Now()
	if epsBound {
		f.epsSw.Send(p)
		return
	}
	if f.cfg.Buffer == BufferAtHost {
		// A host-released packet: it should flow straight through the
		// configured circuit. If the circuit is gone or busy (sync
		// slip), stage it in the ToR VOQ.
		if _, err := f.ocsSw.Send(p); err != nil {
			f.missedCircuit.Inc()
			f.voqs.Enqueue(now, p)
		}
		return
	}
	if f.voqs.Enqueue(now, p) {
		f.observeLater(p)
	}
}

// snapshot implements the loop's demand hook: refresh occupancy from the
// buffering point, then ask the estimator.
func (f *Fabric) snapshot(t units.Time) *demand.Matrix {
	if f.cfg.Buffer == BufferAtHost {
		f.hosts.Queues().FillOccupancy(t, f.est)
		// Staged packets at the ToR still need service.
		snap := f.est.Snapshot(t)
		staged := f.voqs.OccupancyMatrix()
		for i := 0; i < f.cfg.Ports; i++ {
			row := staged.Row(i)
			for k := 0; k < row.Len(); k++ {
				j, v := row.Entry(k)
				snap.Add(i, j, v)
			}
		}
		return snap
	}
	f.voqs.FillOccupancy(t, f.est)
	return f.est.Snapshot(t)
}

// configure implements the loop's switching hook.
func (f *Fabric) configure(m match.Matching, done func()) {
	f.ocsSw.Configure(m, done)
}

// grant implements the loop's grant hook: serve each matched pair for the
// window and shunt over-age residue to the EPS.
func (f *Fabric) grant(m match.Matching, window units.Duration) {
	budget := units.TransferSize(f.cfg.LineRate, window)
	for in, out := range m {
		if out == match.Unmatched {
			continue
		}
		in, out := packet.Port(in), packet.Port(out)
		staged := f.drainVOQBudget(in, out, budget)
		if f.cfg.Buffer == BufferAtHost {
			remaining := budget - staged
			if remaining > 0 {
				// The grant travels to the host before data can flow.
				f.sim.Schedule(f.cfg.LinkDelay, func() {
					f.hosts.Release(in, out, remaining)
				})
			}
		}
	}
	if f.cfg.ResidualTimeout > 0 && f.epsSw != nil {
		f.shuntResidue(m)
	}
}

// drainVOQBudget streams packets from VOQ (in, out) through the OCS,
// paced by circuit serialization, until the budget or queue is exhausted
// or the circuit disappears. It returns the bits it will have sent.
func (f *Fabric) drainVOQBudget(in, out packet.Port, budget units.Size) units.Size {
	var sent units.Size
	var step func(left units.Size)
	step = func(left units.Size) {
		q := f.voqs.Queue(in, out)
		front := q.Front()
		if front == nil || front.Size > left {
			return
		}
		if f.ocsSw.CircuitOf(in) != int(out) {
			return
		}
		if free := f.ocsSw.InputFreeAt(in); free > f.sim.Now() {
			// A previous (possibly truncated) serialization still owns
			// the input; resume when it releases.
			f.sim.At(free, func() { step(left) })
			return
		}
		p := f.voqs.Dequeue(f.sim.Now(), in, out)
		done, err := f.ocsSw.Send(p)
		if err != nil {
			// Circuit raced away between check and send; put it back
			// conceptually by counting a miss (the packet is lost to
			// this slot; it re-enters via the staging queue).
			f.missedCircuit.Inc()
			f.voqs.Enqueue(f.sim.Now(), p)
			return
		}
		left -= p.Size
		f.sim.At(done, func() { step(left) })
	}
	// Estimate how much this drain can move for the host-release split:
	// the queued bits up to the budget.
	q := f.voqs.Queue(in, out)
	sent = q.Bits()
	if sent > budget {
		sent = budget
	}
	step(budget)
	return sent
}

// shuntResidue moves over-age head-of-line packets of unmatched VOQs to
// the EPS. Only nonempty VOQs are visited (sorted for determinism), so a
// residue sweep over a 512-port bank costs O(backlogged pairs), not n².
func (f *Fabric) shuntResidue(m match.Matching) {
	now := f.sim.Now()
	n := f.cfg.Ports
	f.residue = f.voqs.AppendNonEmpty(f.residue[:0])
	slices.Sort(f.residue)
	for _, idx := range f.residue {
		i, j := int(idx)/n, int(idx)%n
		if m[i] == j {
			continue // served by a circuit this slot
		}
		q := f.voqs.Queue(packet.Port(i), packet.Port(j))
		for {
			front := q.Front()
			if front == nil || now.Sub(front.EnqueuedAt) <= f.cfg.ResidualTimeout {
				break
			}
			p := f.voqs.Dequeue(now, packet.Port(i), packet.Port(j))
			f.shunted.Inc()
			f.epsSw.Send(p)
		}
	}
}

// deliver is the common egress for both switching fabrics.
func (f *Fabric) deliver(p *packet.Packet, _ packet.Port) {
	now := f.sim.Now()
	p.DeliveredAt = now
	f.delivered.Inc()
	f.deliveredBits.Add(int64(p.Size))
	lat := int64(p.Latency())
	f.latAll.Record(lat)
	if p.Class == packet.ClassLatencySensitive {
		f.latMice.Record(lat)
	}
	switch p.Via {
	case packet.PathOCS:
		f.latOCS.Record(lat)
	case packet.PathEPS:
		f.latEPS.Record(lat)
	}
	if f.onDeliver != nil {
		f.onDeliver(p)
	}
}

// Metrics is a full snapshot of fabric state; see the field comments for
// which experiment consumes what.
type Metrics struct {
	Elapsed units.Duration

	Injected      int64
	InjectedBits  units.Size
	Delivered     int64
	DeliveredBits units.Size

	OCS ocs.Stats
	EPS eps.Stats

	// Figure 1: buffering requirement at each placement.
	PeakSwitchBuffer units.Size
	PeakHostBuffer   units.Size

	DropsVOQ      int64
	DropsHost     int64
	DropsClassify int64
	MissedCircuit int64
	Shunted       int64

	Latency     stats.Summary // picoseconds
	LatencyMice stats.Summary
	LatencyOCS  stats.Summary
	LatencyEPS  stats.Summary

	Loop      sched.LoopStats
	DutyCycle float64
}

// Metrics returns a snapshot at the current simulated time.
func (f *Fabric) Metrics() Metrics {
	elapsed := units.Duration(f.sim.Now())
	m := Metrics{
		Elapsed:          elapsed,
		Injected:         f.injected.Value(),
		InjectedBits:     units.Size(f.injectedBits.Value()),
		Delivered:        f.delivered.Value(),
		DeliveredBits:    units.Size(f.deliveredBits.Value()),
		OCS:              f.ocsSw.Stats(),
		PeakSwitchBuffer: f.voqs.PeakBits(),
		PeakHostBuffer:   f.hosts.PeakBits(),
		DropsVOQ:         f.voqs.Drops(),
		DropsHost:        f.hosts.Drops(),
		DropsClassify:    f.dropsClassify.Value(),
		MissedCircuit:    f.missedCircuit.Value(),
		Shunted:          f.shunted.Value(),
		Latency:          f.latAll.Summarize(),
		LatencyMice:      f.latMice.Summarize(),
		LatencyOCS:       f.latOCS.Summarize(),
		LatencyEPS:       f.latEPS.Summarize(),
		Loop:             f.loop.Stats(),
		DutyCycle:        f.ocsSw.DutyCycle(elapsed),
	}
	if f.epsSw != nil {
		m.EPS = f.epsSw.Stats()
	}
	return m
}

// Sample is one periodic observation of a running fabric: the time-series
// counterpart of the final Metrics. Streaming consumers receive one Sample
// per observation interval (queue depths, latency percentiles so far,
// circuit utilization over simulated time).
type Sample struct {
	Time units.Time

	Injected  int64
	Delivered int64

	// Queue depths at the three buffering points, at this instant.
	SwitchQueuedBits units.Size
	HostQueuedBits   units.Size
	EPSQueuedBits    units.Size

	// Latency percentiles over all deliveries so far.
	LatencyP50 units.Duration
	LatencyP99 units.Duration

	// OCSDutyCycle is the circuit utilization over simulated time so far.
	OCSDutyCycle float64

	SchedCycles  int64
	GrantedPairs int64
}

// Sample observes the fabric at the current simulated time. It is
// read-only: sampling does not perturb the simulation, so a run with
// observers attached is bit-identical to the same run without them.
func (f *Fabric) Sample() Sample {
	now := f.sim.Now()
	s := Sample{
		Time:             now,
		Injected:         f.injected.Value(),
		Delivered:        f.delivered.Value(),
		SwitchQueuedBits: f.voqs.TotalBits(),
		HostQueuedBits:   f.hosts.TotalBits(),
		LatencyP50:       units.Duration(f.latAll.Percentile(50)),
		LatencyP99:       units.Duration(f.latAll.Percentile(99)),
		OCSDutyCycle:     f.ocsSw.DutyCycle(units.Duration(now)),
		SchedCycles:      f.loop.Cycles(),
		GrantedPairs:     f.loop.GrantedPairs(),
	}
	if f.epsSw != nil {
		s.EPSQueuedBits = f.epsSw.Stats().QueuedBits
	}
	return s
}

// Throughput returns delivered bits divided by elapsed time, normalized
// to aggregate line capacity: 1.0 means every port ran at line rate.
func (m Metrics) Throughput(ports int, rate units.BitRate) float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	capacity := float64(ports) * float64(rate) * m.Elapsed.Seconds()
	return float64(m.DeliveredBits) / capacity
}

// DeliveredFraction returns delivered bits over injected bits.
func (m Metrics) DeliveredFraction() float64 {
	if m.InjectedBits == 0 {
		return 0
	}
	return float64(m.DeliveredBits) / float64(m.InjectedBits)
}
