package fabric

import (
	"testing"

	"hybridsched/internal/packet"
	"hybridsched/internal/sched"
	"hybridsched/internal/sim"
	"hybridsched/internal/traffic"
	"hybridsched/internal/units"
)

func fastConfig() Config {
	return Config{
		Ports:        4,
		LineRate:     10 * units.Gbps,
		LinkDelay:    500 * units.Nanosecond,
		Slot:         10 * units.Microsecond,
		ReconfigTime: 1 * units.Microsecond,
		Algorithm:    "islip",
		Timing:       sched.DefaultHardware(),
		Pipelined:    true,
		Buffer:       BufferAtSwitch,
	}
}

// runLoad drives a fabric with the given traffic config for dur and
// returns the metrics after a drain period.
func runLoad(t *testing.T, cfg Config, load float64, dur units.Duration) Metrics {
	t.Helper()
	s := sim.New()
	f, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.New(traffic.Config{
		Ports:    cfg.Ports,
		LineRate: cfg.LineRate,
		Load:     load,
		Pattern:  traffic.Uniform{},
		Sizes:    traffic.Fixed{Size: 1500 * units.Byte},
		Until:    units.Time(dur),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	gen.Start(s, f.Inject)
	s.RunUntil(units.Time(dur))
	// Drain: let queued traffic flush.
	s.RunUntil(units.Time(dur + dur/2))
	f.Stop()
	return f.Metrics()
}

func TestFastRegimeDeliversMostTraffic(t *testing.T) {
	m := runLoad(t, fastConfig(), 0.5, 2*units.Millisecond)
	if m.Injected == 0 {
		t.Fatal("no traffic generated")
	}
	if frac := m.DeliveredFraction(); frac < 0.95 {
		t.Fatalf("delivered fraction %.3f, want >= 0.95 (metrics %+v)", frac, m)
	}
	if m.OCS.PktsDelivered == 0 {
		t.Fatal("no packets crossed the OCS")
	}
	if m.DropsVOQ != 0 {
		t.Fatalf("unexpected VOQ drops with unlimited buffers: %d", m.DropsVOQ)
	}
}

func TestPacketConservation(t *testing.T) {
	cfg := fastConfig()
	m := runLoad(t, cfg, 0.7, 2*units.Millisecond)
	accounted := m.Delivered + m.DropsVOQ + m.DropsHost + m.DropsClassify +
		m.OCS.Truncated + m.EPS.Drops
	// Remaining packets must still be queued somewhere (not lost):
	// injected - accounted = in-flight + queued >= 0.
	if accounted > m.Injected {
		t.Fatalf("over-accounted: %d > %d injected", accounted, m.Injected)
	}
	queued := m.Injected - accounted
	if float64(queued) > 0.1*float64(m.Injected) {
		t.Fatalf("%d of %d packets unaccounted after drain", queued, m.Injected)
	}
}

func TestHostRegimeBuffersAtHost(t *testing.T) {
	cfg := fastConfig()
	cfg.Buffer = BufferAtHost
	cfg.ReconfigTime = 100 * units.Microsecond // slow optics
	cfg.Slot = 300 * units.Microsecond
	cfg.Timing = sched.DefaultSoftware()
	cfg.Pipelined = false
	m := runLoad(t, cfg, 0.3, 5*units.Millisecond)
	if m.PeakHostBuffer == 0 {
		t.Fatal("host regime must accumulate host-side backlog")
	}
	// The defining property of Figure 1: in the slow/host regime the host
	// buffer dominates the switch buffer.
	if m.PeakHostBuffer < 10*m.PeakSwitchBuffer {
		t.Fatalf("host peak %v should dwarf switch peak %v",
			m.PeakHostBuffer, m.PeakSwitchBuffer)
	}
	if m.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestSwitchRegimeBuffersAtSwitch(t *testing.T) {
	m := runLoad(t, fastConfig(), 0.6, 2*units.Millisecond)
	if m.PeakSwitchBuffer == 0 {
		t.Fatal("switch regime must use ToR VOQs")
	}
	if m.PeakHostBuffer != 0 {
		t.Fatalf("switch regime must not buffer at hosts, got %v", m.PeakHostBuffer)
	}
}

func TestFasterSwitchingNeedsLessSwitchBuffer(t *testing.T) {
	// Figure 1's monotonicity on the simulated fabric: cutting the
	// reconfiguration dead-time and slot by 10x cuts the peak ToR
	// buffering substantially.
	// Note slots must carry at least one full frame (1500 B = 1.2 us at
	// 10 Gbps), so the fast slot is 3 us, not nanoseconds.
	slow := fastConfig()
	slow.ReconfigTime = 10 * units.Microsecond
	slow.Slot = 30 * units.Microsecond
	fast := fastConfig()
	fast.ReconfigTime = 100 * units.Nanosecond
	fast.Slot = 3 * units.Microsecond

	mSlow := runLoad(t, slow, 0.5, 3*units.Millisecond)
	mFast := runLoad(t, fast, 0.5, 3*units.Millisecond)
	if mFast.PeakSwitchBuffer*2 >= mSlow.PeakSwitchBuffer {
		t.Fatalf("fast switching peak %v not clearly below slow peak %v",
			mFast.PeakSwitchBuffer, mSlow.PeakSwitchBuffer)
	}
}

func TestEPSCarriesMice(t *testing.T) {
	cfg := fastConfig()
	cfg.EnableEPS = true // installs elephant-threshold rules
	s := sim.New()
	f, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.New(traffic.Config{
		Ports:                cfg.Ports,
		LineRate:             cfg.LineRate,
		Load:                 0.3,
		Pattern:              traffic.Uniform{},
		Sizes:                traffic.Fixed{Size: 1500 * units.Byte},
		LatencySensitiveFrac: 0.2,
		Until:                units.Time(2 * units.Millisecond),
		Seed:                 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	gen.Start(s, f.Inject)
	s.RunUntil(units.Time(3 * units.Millisecond))
	f.Stop()
	m := f.Metrics()
	if m.EPS.PktsDelivered == 0 {
		t.Fatal("latency-sensitive traffic should ride the EPS")
	}
	if m.OCS.PktsDelivered == 0 {
		t.Fatal("bulk traffic should ride the OCS")
	}
	if m.LatencyMice.Count == 0 {
		t.Fatal("no mice latency samples")
	}
}

func TestResidualShunting(t *testing.T) {
	cfg := fastConfig()
	cfg.EnableEPS = true
	cfg.ResidualTimeout = 50 * units.Microsecond
	cfg.Algorithm = "greedy"
	s := sim.New()
	f, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-inject a persistent hotspot plus a tiny starved flow: the
	// greedy circuit serves the hotspot; the straggler ages out and must
	// be shunted to the EPS.
	f.Start()
	hot := func() {
		for k := 0; k < 200; k++ {
			f.Inject(&packet.Packet{Src: 0, Dst: 1, Size: 9000 * units.Byte})
			f.Inject(&packet.Packet{Src: 2, Dst: 1, Size: 9000 * units.Byte})
		}
		f.Inject(&packet.Packet{Src: 2, Dst: 3, Size: 1500 * units.Byte})
	}
	s.Schedule(units.Microsecond, hot)
	s.RunUntil(units.Time(5 * units.Millisecond))
	f.Stop()
	m := f.Metrics()
	if m.Shunted == 0 {
		t.Fatal("aged residue was never shunted to the EPS")
	}
	if m.EPS.PktsDelivered == 0 {
		t.Fatal("shunted packets should be delivered by the EPS")
	}
}

func TestLatencyHardwareVsSoftwareScheduler(t *testing.T) {
	// E2: identical workload; the software scheduler's ms-scale loop must
	// inflate packet latency by orders of magnitude.
	hw := fastConfig()
	hw.Slot = 5 * units.Microsecond

	sw := fastConfig()
	sw.Timing = sched.DefaultSoftware()
	sw.Pipelined = false
	sw.Slot = 5 * units.Microsecond

	mHW := runLoad(t, hw, 0.2, 5*units.Millisecond)
	mSW := runLoad(t, sw, 0.2, 5*units.Millisecond)
	if mHW.Latency.Count == 0 || mSW.Latency.Count == 0 {
		t.Fatal("missing latency samples")
	}
	if mSW.Latency.P50 < 10*mHW.Latency.P50 {
		t.Fatalf("software p50 %v should be >=10x hardware p50 %v",
			units.Duration(mSW.Latency.P50), units.Duration(mHW.Latency.P50))
	}
}

func TestDeliverHookAndTimestamps(t *testing.T) {
	cfg := fastConfig()
	s := sim.New()
	f, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seen []*packet.Packet
	f.SetDeliverHook(func(p *packet.Packet) { seen = append(seen, p) })
	f.Start()
	f.Inject(&packet.Packet{Src: 0, Dst: 2, Size: 1500 * units.Byte})
	s.RunUntil(units.Time(units.Millisecond))
	f.Stop()
	if len(seen) != 1 {
		t.Fatalf("delivered %d", len(seen))
	}
	p := seen[0]
	if p.DeliveredAt == 0 || !p.DeliveredAt.After(p.CreatedAt) {
		t.Fatalf("timestamps wrong: %+v", p)
	}
	if p.Via != packet.PathOCS {
		t.Fatalf("single auto packet should use OCS, got %v", p.Via)
	}
	if p.Latency() <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestConfigValidation(t *testing.T) {
	s := sim.New()
	bad := []Config{
		{},
		{Ports: 1, LineRate: units.Gbps, Slot: units.Microsecond, Timing: sched.DefaultHardware()},
		{Ports: 4, Slot: units.Microsecond, Timing: sched.DefaultHardware()},
		{Ports: 4, LineRate: units.Gbps, Timing: sched.DefaultHardware()},
		{Ports: 4, LineRate: units.Gbps, Slot: units.Microsecond},
		{Ports: 4, LineRate: units.Gbps, Slot: units.Microsecond,
			Timing: sched.DefaultHardware(), Algorithm: "bogus"},
	}
	for i, cfg := range bad {
		if _, err := New(s, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestThroughputMetric(t *testing.T) {
	m := Metrics{Elapsed: units.Second, DeliveredBits: units.Size(10_000_000_000)}
	if got := m.Throughput(1, 10*units.Gbps); got != 1.0 {
		t.Fatalf("throughput = %v, want 1.0", got)
	}
	if (Metrics{}).Throughput(1, units.Gbps) != 0 {
		t.Fatal("zero elapsed should be 0")
	}
	if (Metrics{}).DeliveredFraction() != 0 {
		t.Fatal("zero injected should be 0")
	}
}

// TestSampleLatencyMatchesSummary: Sample reads only the two percentiles
// it reports, and they must equal the full Summarize's at every point of a
// run, from before the first delivery to the drain.
func TestSampleLatencyMatchesSummary(t *testing.T) {
	cfg := fastConfig()
	s := sim.New()
	f, err := New(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.New(traffic.Config{
		Ports:     cfg.Ports,
		LineRate:  cfg.LineRate,
		Load:      0.6,
		Pattern:   traffic.Uniform{},
		Process:   traffic.FlowArrivals,
		FlowSizes: traffic.WebSearch(),
		Until:     units.Time(units.Millisecond),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	gen.Start(s, f.Inject)
	checked := 0
	for at := units.Time(0); at <= units.Time(1500*units.Microsecond); at = at.Add(50 * units.Microsecond) {
		s.RunUntil(at)
		got, want := f.Sample(), f.latAll.Summarize()
		if got.LatencyP50 != units.Duration(want.P50) || got.LatencyP99 != units.Duration(want.P99) {
			t.Fatalf("at %v: Sample p50/p99 %v/%v, Summarize %v/%v",
				at, got.LatencyP50, got.LatencyP99, units.Duration(want.P50), units.Duration(want.P99))
		}
		if want.Count > 0 {
			checked++
		}
	}
	f.Stop()
	if checked < 10 {
		t.Fatalf("only %d checkpoints saw deliveries", checked)
	}
}
