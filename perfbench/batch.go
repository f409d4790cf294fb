package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"hybridsched"
)

// batch_sim (W4): back-to-back Scenario.Run calls of a 64-port hybrid
// fabric, serial. The seed derives a set of batchSet scenarios, which
// run in turn, round after round. One scenario of heavy-tailed WebSearch
// flows varies a lot with its seed; a round of several averages that
// out, every round is the same work (so rounds differ only by how fast
// the host ran them), and every scenario's Metrics must repeat exactly
// from round to round.
const (
	batchPorts  = 64
	batchLoad   = 0.5
	batchSpan   = 5 * hybridsched.Millisecond
	batchSet    = 24
	batchSample = 10 * hybridsched.Microsecond // one scheduler cycle
)

// batchScenario builds one scenario: islip with hardware timing,
// pipelined, flow arrivals with WebSearch sizes, span of offered traffic.
func batchScenario(seed uint64, span hybridsched.Duration, obs hybridsched.Observer) (hybridsched.Scenario, error) {
	return hybridsched.NewScenario(
		hybridsched.WithPorts(batchPorts),
		hybridsched.WithLineRate(10*hybridsched.Gbps),
		hybridsched.WithLinkDelay(500*hybridsched.Nanosecond),
		hybridsched.WithSlot(10*hybridsched.Microsecond),
		hybridsched.WithReconfigTime(hybridsched.Microsecond),
		hybridsched.WithAlgorithm("islip"),
		hybridsched.WithTiming(hybridsched.DefaultHardware()),
		hybridsched.WithPipelined(true),
		hybridsched.WithLoad(batchLoad),
		hybridsched.WithPattern(hybridsched.Uniform{}),
		hybridsched.WithProcess(hybridsched.FlowArrivals),
		hybridsched.WithFlowSizes(hybridsched.WebSearch()),
		hybridsched.WithSeed(seed),
		hybridsched.WithDuration(span),
		hybridsched.WithObserver(batchSample, obs),
	)
}

// batchRun is one timed Scenario.Run.
type batchRun struct {
	wall time.Duration
	m    hybridsched.Metrics
}

// runBatch executes scenario i of the seed's set and times it. The
// observer reads the process CPU clock at every sample, one per scheduler
// cycle, and adds each interval after the first to t: the CPU cost of
// simulating one scheduling decision. With a tracer, each run and
// interval is a span.
func runBatch(seed uint64, i int, tr *tracer, t *tally) (batchRun, error) {
	var br batchRun
	var last hybridsched.Sample
	var lastAt time.Time
	var lastCPU int64
	var root int32 = -1
	observe := func(s hybridsched.Sample) {
		cpu, now := processCPU.now(), time.Now()
		if dc := s.SchedCycles - last.SchedCycles; dc > 0 && !lastAt.IsZero() {
			dt := cpu - lastCPU
			t.add(obs{
				busy: dt, ingest: dt, wall: int64(now.Sub(lastAt)), decision: dt / dc,
				epochs: dc, offers: s.Injected - last.Injected,
			})
			if tr != nil {
				tr.add(spInterval, root, uint64(i), lastAt, now)
			}
		}
		last, lastAt, lastCPU = s, now, cpu
	}
	sc, err := batchScenario(hybridsched.DeriveSeed(seed, i), batchSpan, observe)
	if err != nil {
		return br, err
	}
	if tr != nil {
		root = tr.begin(spRun, -1, uint64(i))
	}
	t0 := time.Now()
	br.m, err = sc.Run()
	br.wall = time.Since(t0)
	if tr != nil {
		tr.end(root)
	}
	return br, err
}

// metricsDigest hashes a run's complete Metrics.
func metricsDigest(m hybridsched.Metrics) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", m)
	return h.Sum64()
}

// batchPhase is the rounds of one measured phase.
type batchPhase struct {
	rounds   [][]batchRun
	t        *tally // the observer intervals of every run
	ms0, ms1 runtime.MemStats
}

// runs returns every run of the phase.
func (p *batchPhase) runs() []batchRun {
	var out []batchRun
	for _, r := range p.rounds {
		out = append(out, r...)
	}
	return out
}

// runBatchPhase runs whole rounds of the scenario set for d and checks
// every run: Delivered never exceeds Injected, and each scenario's
// Metrics digest repeats the one recorded in digests.
func runBatchPhase(seed uint64, d time.Duration, tr *tracer, digests map[int]uint64, rep *report) (*batchPhase, error) {
	p := &batchPhase{t: newTally(0)}
	runtime.ReadMemStats(&p.ms0)
	for start := time.Now(); len(p.rounds) == 0 || time.Since(start) < d; {
		var round []batchRun
		for i := 0; i < batchSet; i++ {
			rep.attempted++
			br, err := runBatch(seed, i, tr, p.t)
			if err != nil {
				return nil, err
			}
			if br.m.Delivered > br.m.Injected || br.m.DeliveredBits > br.m.InjectedBits || br.m.Injected == 0 {
				rep.fail("scenario %d: delivered %d of %d packets", i, br.m.Delivered, br.m.Injected)
			}
			if h, ok := digests[i]; !ok {
				digests[i] = metricsDigest(br.m)
			} else if h != metricsDigest(br.m) {
				rep.fail("scenario %d: metrics digest %016x, earlier rounds %016x", i, metricsDigest(br.m), h)
			}
			round = append(round, br)
		}
		p.rounds = append(p.rounds, round)
	}
	runtime.ReadMemStats(&p.ms1)
	return p, nil
}

func runBatchSim(cfg config) (*report, error) {
	rep := newReport()
	// Set-up is what a run pays before simulated time advances: building
	// the scenario and the fabric, measured as a one-slot run.
	setup, err := medianSetup(51, func() error {
		sc, err := batchScenario(cfg.seed, 10*hybridsched.Microsecond, func(hybridsched.Sample) {})
		if err == nil {
			_, err = sc.Run()
		}
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup
	d := time.Duration(cfg.seconds * float64(time.Second))

	digests := map[int]uint64{}
	var timed *batchPhase
	if !cfg.trace {
		if timed, err = runBatchPhase(cfg.seed, d, nil, digests, rep); err != nil {
			return nil, err
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		rep.metrics["peak_rss_mb"] = rss
	} else {
		tr := newTracer()
		traced, err := runBatchPhase(cfg.seed, d/2, tr, digests, rep)
		if err != nil {
			return nil, err
		}
		tr.selfTimeNotes(rep)
		if path, err := tr.write(cfg.out, "batch_sim"); err == nil {
			rep.note("spans: %d written to %s", len(tr.spans), path)
		}
		batchLayer(traced, rep.metrics)
		if timed, err = runBatchPhase(cfg.seed, d/2, nil, digests, rep); err != nil {
			return nil, err
		}
		rep.metrics["bench.trace_overhead_pct"] = 100 * (wallPerCycle(traced.runs())/wallPerCycle(timed.runs()) - 1)
	}
	endToEndFrom(timed.t, rep)
	var inj, del, injBits, delBits, cycles int64
	all := fnv.New64a()
	for i, r := range timed.rounds[0] {
		inj += r.m.Injected
		del += r.m.Delivered
		injBits += int64(r.m.InjectedBits)
		delBits += int64(r.m.DeliveredBits)
		cycles += r.m.Loop.Cycles
		all.Write(binary.LittleEndian.AppendUint64(nil, digests[i]))
	}
	rep.note("traffic: %d rounds of %d scenarios of %v simulated; a round injects %d packets, delivers %d, in %d scheduler cycles",
		len(timed.rounds), batchSet, batchSpan, inj, del, cycles)
	rep.metrics["served_ratio"] = float64(delBits) / float64(injBits)
	rep.note("digest %016x of the scenarios' metrics, repeated by every round", all.Sum64())
	return rep, nil
}

func wallPerCycle(runs []batchRun) float64 {
	var wall time.Duration
	var cycles int64
	for _, r := range runs {
		wall += r.wall
		cycles += r.m.Loop.Cycles
	}
	return float64(wall) / 1e3 / float64(max(cycles, 1))
}

// batchLayer computes the simulator's per-layer metrics.
func batchLayer(p *batchPhase, m map[string]float64) {
	var wall time.Duration
	var cycles, idle, inj, del int64
	var sim hybridsched.Duration
	for _, r := range p.runs() {
		wall += r.wall
		cycles += r.m.Loop.Cycles
		idle += r.m.Loop.IdleCycles
		inj += r.m.Injected
		del += r.m.Delivered
		sim += r.m.Elapsed
	}
	m["fabric.wall_us_per_cycle"] = float64(wall) / 1e3 / float64(max(cycles, 1))
	m["fabric.pkts_per_s"] = float64(del) / wall.Seconds()
	m["fabric.idle_cycle_ratio"] = float64(idle) / float64(max(cycles, 1))
	m["fabric.delivered_ratio"] = float64(del) / float64(max(inj, 1))
	m["fabric.sim_ms_per_s"] = float64(sim) / float64(hybridsched.Millisecond) / wall.Seconds()
	m["go.gc_cycles_per_1k_epochs"] = 1000 * float64(p.ms1.NumGC-p.ms0.NumGC) / float64(max(cycles, 1))
	m["go.gc_pause_us_total"] = float64(p.ms1.PauseTotalNs-p.ms0.PauseTotalNs) / 1e3
}
