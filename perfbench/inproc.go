package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"hybridsched"
	"hybridsched/internal/match"
)

// serveSpec is one in-process Service workload.
type serveSpec struct {
	name     string
	ports    int
	alg      string
	slotPkts int     // demand a matched pair drains per epoch, in packets
	load     float64 // offered load as a fraction of slot capacity
	flowPkts float64 // mean flow length in packets
	interval time.Duration
	warmup   int // untimed epochs before measuring; also the digest prefix
}

// serve_ingest (W1): ingest and snapshot dominate, the kernel is small.
var ingestSpec = serveSpec{
	name: "serve_ingest", ports: 512, alg: "islip", slotPkts: 8,
	load: 0.6, flowPkts: 16, warmup: 500,
}

// serve_frames (W2): the BvN decomposer dominates, ingest is small;
// epochs are due on a fixed wall-clock interval.
var framesSpec = serveSpec{
	name: "serve_frames", ports: 128, alg: "bvn", slotPkts: 8,
	load: 0.15, flowPkts: 16, interval: time.Millisecond, warmup: 500,
}

func runServeIngest(cfg config) (*report, error) { return runServe(ingestSpec, cfg) }
func runServeFrames(cfg config) (*report, error) { return runServe(framesSpec, cfg) }

func (s serveSpec) slotBits() int64 { return int64(s.slotPkts) * pktBits }

func (s serveSpec) serviceConfig(seed uint64) hybridsched.ServiceConfig {
	return hybridsched.ServiceConfig{
		Ports:     s.ports,
		Algorithm: s.alg,
		Seed:      seed,
		SlotBits:  hybridsched.Size(s.slotBits()),
		Shards:    1,
		Workers:   1,
	}
}

// serveRun is one service, its generator, and everything checked or
// measured about it.
type serveRun struct {
	spec serveSpec
	rep  *report
	svc  *hybridsched.Service
	gen  *flowGen
	buf  []offer
	seen []bool

	epoch       uint64
	offeredBits int64
	servedBits  int64
	digest      uint64      // over the frames of epochs 1..warmup
	hash        hash.Hash64 // FNV-1a, accumulating the digest
	mir         *mirror     // traced runs only
	tr          *tracer     // traced runs only
	warmRate    float64     // epochs per wall second during warm-up
}

// offerSampling: a traced run times every offerSampling-th Offer call on
// its own; timing all of them would double the ingest cost.
const offerSampling = 16

func newServeRun(spec serveSpec, seed uint64, rep *report) (*serveRun, error) {
	svc, err := hybridsched.NewService(spec.serviceConfig(seed))
	if err != nil {
		return nil, err
	}
	return &serveRun{
		spec: spec, rep: rep, svc: svc,
		gen:  newFlowGen(seed, 1, spec.ports, spec.load, float64(spec.slotPkts), spec.flowPkts),
		seen: make([]bool, spec.ports),
		hash: fnv.New64a(),
	}, nil
}

// epochTimes is what one epoch measured: wall times, and the process's
// CPU time (ns) at the start, after the offers and after the step.
type epochTimes struct {
	start, offered, stepped, done time.Time
	cpuStart, cpuOffered, cpuStep int64
	offers                        int
	served, backlog               int64
}

// generate makes the next epoch's offers. It runs before the epoch is
// timed, and in paced runs before the epoch is due, so no time measured
// includes the benchmark's own generator.
func (r *serveRun) generate() { r.buf = r.gen.epoch(r.buf[:0]) }

// runEpoch feeds the generated offers, steps the service and checks the
// frame. The times cover only the program's calls (and, when traced, the
// mirror).
func (r *serveRun) runEpoch() epochTimes {
	var et epochTimes
	et.offers = len(r.buf)
	epochNo := r.epoch + 1
	var root int32 = -1
	if r.tr != nil {
		root = r.tr.begin(spEpoch, -1, epochNo)
	}
	et.cpuStart = processCPU.now()
	et.start = time.Now()
	r.rep.attempted += int64(len(r.buf)) + 1
	if r.tr == nil {
		for _, o := range r.buf {
			if err := r.svc.Offer(o.src(), o.dst(), pktBits); err != nil {
				r.rep.fail("offer %d->%d: %v", o.src(), o.dst(), err)
			}
		}
	} else {
		r.tracedOffers(root, epochNo)
	}
	r.offeredBits += int64(len(r.buf)) * pktBits
	et.offered = time.Now()
	et.cpuOffered = processCPU.now()
	var ms0, ms1 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	stepStart := time.Now()
	frames, err := r.svc.Step()
	et.stepped = time.Now()
	et.cpuStep = processCPU.now()
	if r.tr != nil {
		runtime.ReadMemStats(&ms1)
		r.tr.add(spStep, root, epochNo, stepStart, et.stepped)
		r.mir.c.allocs += int64(ms1.Mallocs - ms0.Mallocs)
		r.mir.c.bytes += int64(ms1.TotalAlloc - ms0.TotalAlloc)
	}
	if err != nil {
		r.rep.fail("step %d: %v", epochNo, err)
		et.done = time.Now()
		return et
	}
	r.epoch = epochNo
	r.check(frames)
	if len(frames) == 1 {
		et.served = frames[0].ServedBits
		et.backlog = frames[0].BacklogBits
		if r.mir != nil {
			r.mir.epoch(r.tr, root, epochNo, frames[0].Match, r.rep)
		}
	}
	if r.tr != nil {
		r.tr.end(root)
	}
	et.done = time.Now()
	return et
}

// tracedOffers feeds the epoch's offers into the service and the mirror.
func (r *serveRun) tracedOffers(root int32, epochNo uint64) {
	batch := r.tr.begin(spOffers, root, epochNo)
	for i, o := range r.buf {
		var err error
		if i%offerSampling == 0 {
			t0 := time.Now()
			err = r.svc.Offer(o.src(), o.dst(), pktBits)
			r.tr.add(spOffer, batch, epochNo, t0, time.Now())
		} else {
			err = r.svc.Offer(o.src(), o.dst(), pktBits)
		}
		if err != nil {
			r.rep.fail("offer %d->%d: %v", o.src(), o.dst(), err)
		}
	}
	r.tr.end(batch)
	for _, o := range r.buf {
		r.mir.offer(o.src(), o.dst())
	}
}

// check verifies one step's frames: one frame for the next epoch, a
// valid partial permutation, consistent pair and served counts, and
// conservation (offered = served + backlog) after every epoch. Frames of
// the first warmup epochs feed the digest.
func (r *serveRun) check(frames []hybridsched.ServiceFrame) {
	if len(frames) != 1 {
		r.rep.fail("epoch %d: %d frames, want 1", r.epoch, len(frames))
		return
	}
	f := frames[0]
	if f.Epoch != r.epoch || f.Shard != 0 {
		r.rep.fail("frame labelled epoch %d shard %d, want epoch %d shard 0", f.Epoch, f.Shard, r.epoch)
	}
	if err := checkMatching(f.Match, r.spec.ports, f.Pairs, r.seen); err != nil {
		r.rep.fail("epoch %d: %v", r.epoch, err)
	}
	if f.ServedBits < 0 || f.ServedBits > int64(f.Pairs)*r.spec.slotBits() {
		r.rep.fail("epoch %d: served %d bits with %d pairs", r.epoch, f.ServedBits, f.Pairs)
	}
	r.servedBits += f.ServedBits
	if r.offeredBits != r.servedBits+f.BacklogBits {
		r.rep.fail("epoch %d: offered %d != served %d + backlog %d", r.epoch, r.offeredBits, r.servedBits, f.BacklogBits)
	}
	if r.epoch <= uint64(r.spec.warmup) {
		hashFrame(r.hash, f.Epoch, f.Shard, f.Match, f.ServedBits, f.BacklogBits)
		if r.epoch == uint64(r.spec.warmup) {
			r.digest = r.hash.Sum64()
		}
	}
}

// hashFrame adds one frame to a digest: epoch, shard, matching, served
// and backlog bits.
func hashFrame(h hash.Hash64, epoch uint64, shard int, m []int, served, backlog int64) {
	b := make([]byte, 0, 8*(len(m)+4))
	b = binary.LittleEndian.AppendUint64(b, epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(shard))
	for _, out := range m {
		b = binary.LittleEndian.AppendUint64(b, uint64(out))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(served))
	b = binary.LittleEndian.AppendUint64(b, uint64(backlog))
	h.Write(b)
}

// checkMatching reports whether m is a valid partial permutation of n
// ports with the stated number of pairs. seen is scratch of length n.
func checkMatching(m []int, n, pairs int, seen []bool) error {
	if len(m) != n {
		return fmt.Errorf("matching has %d entries, want %d", len(m), n)
	}
	clear(seen)
	got := 0
	for in, out := range m {
		if out == hybridsched.Unmatched {
			continue
		}
		if out < 0 || out >= n {
			return fmt.Errorf("input %d matched to output %d", in, out)
		}
		if seen[out] {
			return fmt.Errorf("output %d matched twice", out)
		}
		seen[out] = true
		got++
	}
	if got != pairs {
		return fmt.Errorf("frame says %d pairs, matching has %d", pairs, got)
	}
	return nil
}

// finish checks the service's own totals against the benchmark's.
func (r *serveRun) finish() {
	st := r.svc.Stats()
	if len(st) != 1 {
		r.rep.fail("stats for %d shards, want 1", len(st))
		return
	}
	s := st[0]
	if s.OfferedBits != r.offeredBits || s.ServedBits != r.servedBits ||
		s.OfferedBits != s.ServedBits+s.BacklogBits || s.Epochs != r.epoch {
		r.rep.fail("service totals offered=%d served=%d backlog=%d epochs=%d disagree with benchmark offered=%d served=%d epochs=%d",
			s.OfferedBits, s.ServedBits, s.BacklogBits, s.Epochs, r.offeredBits, r.servedBits, r.epoch)
	}
}

// phase is the samples of one measured phase.
type phase struct {
	t        *tally
	late     []int64 // paced runs: wall ns the epoch started after its due time
	missed   int     // paced runs: decisions done after the next epoch was due (pacing clock)
	bitsIn   int64
	ms0, ms1 runtime.MemStats
}

// measure runs epochs for d of wall time: back to back, or each due
// spec.interval of wall time after the previous one.
//
// Decision times are CPU time. A paced epoch's decision runs from its due
// time, so an epoch waiting behind a late decision counts the wait; the
// wait is kept on a clock of its own, on which epoch k is due at
// k × interval and an epoch that starts when due or when the previous one
// is done, whichever is later, is done its own CPU time later. Wall time
// would count the same wait, and every stall of the host with it.
func (r *serveRun) measure(d time.Duration) *phase {
	// Size the sample buffers up front: grown by doubling, they would add
	// a copy of themselves to the process's peak RSS, at a point that
	// depends on how fast the host ran.
	paced := r.spec.interval > 0
	n := int(1.25*r.warmRate*d.Seconds()) + 1
	if paced {
		n = int(d/r.spec.interval) + 1
	}
	p := &phase{t: newTally(n)}
	if paced {
		p.late = make([]int64, 0, n)
	}
	runtime.ReadMemStats(&p.ms0)
	in0 := r.offeredBits
	var done int64 // the previous paced epoch's end, on the pacing clock
	if paced {
		// Keep the pacer on one thread: its yield loop would otherwise
		// hop between threads and keep the runtime's idle threads
		// spinning, CPU time the epochs would be charged for.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * r.spec.interval)
		if paced && due.Sub(start) >= d || !paced && time.Since(start) >= d {
			break
		}
		r.generate()
		// The OS timer wakes about a millisecond late, a whole interval,
		// so the pacer yields in a loop until the due time.
		for paced && time.Now().Before(due) {
			runtime.Gosched()
		}
		e := r.runEpoch()
		o := obs{
			busy:     e.cpuStep - e.cpuStart,
			ingest:   e.cpuOffered - e.cpuStart,
			decision: e.cpuStep - e.cpuOffered,
			wall:     int64(e.done.Sub(e.start)),
			epochs:   1,
			offers:   int64(e.offers),
			served:   e.served,
			backlog:  e.backlog,
		}
		if paced {
			dueAt := int64(k) * int64(r.spec.interval)
			done = max(dueAt, done) + o.busy
			o.decision = done - dueAt
			p.late = append(p.late, int64(e.start.Sub(due)))
			if o.decision > int64(r.spec.interval) {
				p.missed++
			}
		}
		p.t.add(o)
	}
	runtime.ReadMemStats(&p.ms1)
	p.bitsIn = r.offeredBits - in0
	return p
}

// trafficNotes verifies the traffic of a phase instead of assuming it:
// measured load against slot capacity, offers per epoch, flow length,
// and a backlog that stays bounded.
func (r *serveRun) trafficNotes(p *phase) {
	n := p.t.samples()
	capacity := float64(n) * float64(r.spec.ports) * float64(r.spec.slotBits())
	load := float64(p.bitsIn) / capacity
	r.rep.note("traffic: %d epochs, offered load %.3f of slot capacity (target %.2f), %.1f offers/epoch, mean flow %.1f pkts",
		n, load, r.spec.load, float64(p.bitsIn)/pktBits/float64(max(n, 1)), r.gen.meanFlow())
	growing, second, last := p.t.backlogGrowing(float64(r.spec.slotBits()) * float64(r.spec.ports))
	r.rep.note("backlog: %.1f Mbit mean in the 2nd quarter, %.1f Mbit in the 4th", second/1e6, last/1e6)
	if growing {
		r.rep.fail("backlog kept growing: %.1f -> %.1f Mbit", second/1e6, last/1e6)
	}
}

// runServe runs one in-process Service workload.
func runServe(spec serveSpec, cfg config) (*report, error) {
	rep := newReport()
	var r *serveRun
	setup, err := medianSetup(101, func() error {
		var err error
		r, err = newServeRun(spec, cfg.seed, rep)
		return err
	}, func() { r.svc.Close() })
	if err != nil {
		return nil, err
	}
	defer func() { r.svc.Close() }()
	rep.metrics["setup_s"] = setup
	d := time.Duration(cfg.seconds * float64(time.Second))

	if cfg.trace {
		r.tr = newTracer()
		if r.mir, err = newMirror(spec, cfg.seed); err != nil {
			return nil, err
		}
	}
	warm := time.Now()
	for i := 0; i < spec.warmup; i++ {
		r.generate()
		r.runEpoch()
	}
	r.warmRate = float64(spec.warmup) / time.Since(warm).Seconds()
	if cfg.trace {
		// Per-layer figures cover the measured phase only.
		r.tr.spans = r.tr.spans[:0]
		r.mir.c = mirrorCounts{}
	}
	var timed *phase
	if !cfg.trace {
		timed = r.measure(d)
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		rep.metrics["peak_rss_mb"] = rss
	} else {
		traced := r.measure(d / 2)
		r.tr.selfTimeNotes(rep)
		if path, err := r.tr.write(cfg.out, spec.name); err == nil {
			rep.note("spans: %d written to %s", len(r.tr.spans), path)
		} else {
			rep.note("spans not written: %v", err)
		}
		r.mir.layerMetrics(r.tr, traced, rep.metrics)
		r.tr, r.mir = nil, nil
		timed = r.measure(d / 2)
		rep.metrics["bench.trace_overhead_pct"] = 100 * (traced.t.meanWall()/timed.t.meanWall() - 1)
	}
	endToEndFrom(timed.t, rep)
	rep.metrics["served_ratio"] = timed.t.servedRatio()
	if spec.interval > 0 {
		paceMetrics(timed, rep.metrics)
		rep.note("pacing: every %v, generator late p99 %.1f us, deadline missed by %.4f of epochs",
			spec.interval, rep.metrics["bench.gen_late_us.p99"], rep.metrics["bench.deadline_miss_ratio"])
	}
	r.trafficNotes(timed)
	r.finish()

	// The digest of the first warmup epochs must repeat: replay them on a
	// fresh service, back to back, and compare.
	v, err := newServeRun(spec, cfg.seed, newReport())
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.warmup; i++ {
		v.generate()
		v.runEpoch()
	}
	v.svc.Close()
	rep.note("digest %016x over epochs 1..%d (replay %016x)", r.digest, spec.warmup, v.digest)
	if v.digest != r.digest || v.rep.failed != 0 {
		rep.fail("frame digest did not repeat: %016x then %016x", r.digest, v.digest)
	}
	return rep, nil
}

// paceMetrics reports how the paced generator and the deadlines fared.
func paceMetrics(p *phase, m map[string]float64) {
	late := make([]float64, len(p.late))
	for i, l := range p.late {
		late[i] = float64(l) / 1e3
	}
	m["bench.gen_late_us.p99"] = quantile(late, 0.99)
	m["bench.deadline_miss_ratio"] = float64(p.missed) / float64(max(p.t.samples(), 1))
}

// mirror keeps the pending matrix the service should hold, computed from
// the benchmark's own offers and the returned frames, and runs a second
// instance of the same algorithm (same name, size and seed) on it.
type mirror struct {
	slotBits int64
	pending  *hybridsched.DemandMatrix
	scratch  *hybridsched.DemandMatrix
	alg      match.Algorithm
	framer   interface{ Frames() int64 }
	dirty    []bool
	ndirty   int
	c        mirrorCounts
}

// mirrorCounts are the traced phase's per-layer counts.
type mirrorCounts struct {
	epochs     int64
	mismatches int64
	pairs      int64
	idle       int64
	nonzeros   int64
	touched    float64
	yieldNum   float64
	yieldDen   float64
	decompose  []float64 // ns of Schedule calls that computed a frame
	frames     int64
	allocs     int64
	bytes      int64
	backlog    float64
}

func newMirror(spec serveSpec, seed uint64) (*mirror, error) {
	alg, err := match.New(spec.alg, spec.ports, hybridsched.DeriveSeed(seed, 0))
	if err != nil {
		return nil, err
	}
	m := &mirror{
		slotBits: spec.slotBits(),
		pending:  hybridsched.NewDemandMatrix(spec.ports),
		scratch:  hybridsched.NewDemandMatrix(spec.ports),
		alg:      alg,
		dirty:    make([]bool, spec.ports),
	}
	m.framer, _ = alg.(interface{ Frames() int64 })
	return m, nil
}

func (m *mirror) offer(src, dst int) {
	m.pending.Add(src, dst, pktBits)
	m.touch(src)
}

func (m *mirror) touch(row int) {
	if !m.dirty[row] {
		m.dirty[row] = true
		m.ndirty++
	}
}

// epoch snapshots the mirror, schedules it, compares the result with the
// service's matching, and drains what the service's matching served.
func (m *mirror) epoch(tr *tracer, root int32, epochNo uint64, got match.Matching, rep *report) {
	n := m.pending.N()
	sp := tr.begin(spCopy, root, epochNo)
	m.scratch.CopyFrom(m.pending)
	tr.end(sp)
	m.c.epochs++
	m.c.nonzeros += int64(m.scratch.NonZeros())
	m.c.touched += float64(m.ndirty) / float64(n)
	clear(m.dirty)
	m.ndirty = 0
	rows, cols := 0, 0
	for i := 0; i < n; i++ {
		if m.scratch.RowSum(i) > 0 {
			rows++
		}
		if m.scratch.ColSum(i) > 0 {
			cols++
		}
	}

	var before int64
	if m.framer != nil {
		before = m.framer.Frames()
	}
	sp = tr.begin(spSchedule, root, epochNo)
	want := m.alg.Schedule(m.scratch)
	tr.end(sp)
	if m.framer != nil && m.framer.Frames() > before {
		m.c.frames += m.framer.Frames() - before
		m.c.decompose = append(m.c.decompose, tr.spans[sp].dur())
	}
	if !want.Equal(got) {
		m.c.mismatches++
		rep.fail("epoch %d: mirror %s matching differs from the service's", epochNo, m.alg.Name())
	}
	pairs, useful := 0, 0
	for in, out := range got {
		if out != match.Unmatched {
			pairs++
			if m.scratch.At(in, out) > 0 {
				useful++
			}
		}
	}
	m.c.pairs += int64(pairs)
	if pairs == 0 {
		m.c.idle++
	}
	// Yield counts only pairs with demand: a frame scheduler also plays
	// back stuffed pairs that serve nothing.
	if d := min(rows, cols); d > 0 {
		m.c.yieldNum += float64(useful)
		m.c.yieldDen += float64(d)
	}

	sp = tr.begin(spDrain, root, epochNo)
	for in, out := range got {
		if out == match.Unmatched {
			continue
		}
		if take := min(m.scratch.At(in, out), m.slotBits); take > 0 {
			m.pending.Add(in, out, -take)
			m.touch(in)
		}
	}
	tr.end(sp)
	m.c.backlog += float64(m.pending.Total())
}

// layerMetrics derives the per-layer metrics of a traced phase from its
// spans and the mirror's counts.
func (m *mirror) layerMetrics(tr *tracer, p *phase, out map[string]float64) {
	ep := float64(max(m.c.epochs, 1))
	ns := tr.durations(spOffer)
	out["service.offer_ns.p50"] = quantile(ns, 0.5)
	out["service.offer_ns.p99"] = quantile(ns, 0.99)
	step := tr.durations(spStep)
	out["service.step_us.p50"] = quantile(step, 0.5) / 1e3
	out["service.step_us.p99"] = quantile(step, 0.99) / 1e3
	out["service.allocs_per_epoch"] = float64(m.c.allocs) / ep
	out["service.bytes_per_epoch"] = float64(m.c.bytes) / ep
	out["serve.ingest_us_per_epoch"] = mean(tr.durations(spOffers)) / 1e3

	out["serve.offers_per_epoch"] = float64(p.t.offers) / float64(max(p.t.samples(), 1))

	// The Step span minus the mirrored kernel and snapshot copy of the
	// same epoch: what the epoch costs besides scheduling and copying.
	steps, copies, sched := tr.byEpoch(spStep), tr.byEpoch(spCopy), tr.byEpoch(spSchedule)
	var self []float64
	for e, s := range steps {
		self = append(self, (s-copies[e]-sched[e])/1e3)
	}
	out["serve.step_self_us"] = median(self)
	out["serve.pairs_per_epoch"] = float64(m.c.pairs) / ep
	out["serve.idle_epoch_ratio"] = float64(m.c.idle) / ep
	out["serve.backlog_mbit"] = m.c.backlog / ep / 1e6

	sch := tr.durations(spSchedule)
	out["match.schedule_us.p50"] = quantile(sch, 0.5) / 1e3
	out["match.schedule_us.p99"] = quantile(sch, 0.99) / 1e3
	out["match.decompose_ms.p50"] = quantile(m.c.decompose, 0.5) / 1e6
	out["match.decompose_ms.p99"] = quantile(m.c.decompose, 0.99) / 1e6
	out["match.frames_per_1k_epochs"] = 1000 * float64(m.c.frames) / ep
	if m.c.yieldDen > 0 {
		out["match.pair_yield"] = m.c.yieldNum / m.c.yieldDen
	}
	out["match.mirror_mismatches"] = float64(m.c.mismatches)
	out["demand.nonzeros"] = float64(m.c.nonzeros) / ep
	out["demand.copy_us"] = mean(tr.durations(spCopy)) / 1e3
	out["demand.touched_row_share"] = m.c.touched / ep

	out["go.gc_cycles_per_1k_epochs"] = 1000 * float64(p.ms1.NumGC-p.ms0.NumGC) / float64(max(p.t.samples(), 1))
	out["go.gc_pause_us_total"] = float64(p.ms1.PauseTotalNs-p.ms0.PauseTotalNs) / 1e3
}
