package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/bits"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"hybridsched"
)

// daemon_loopback (W3): hybridschedd as a child process, 2 shards of 64
// ports running islip, stepped manually. One connection sends offers
// closed loop, one outstanding at a time, plus a step per epoch; a second
// connection is subscribed to shard 0.
const (
	dShards   = 2
	dPorts    = 64
	dSlotPkts = 1
	dLoad     = 0.25
	dFlowPkts = 16
	dWarmup   = 300
	dWorkers  = 2
)

// daemonProc is one running hybridschedd and its request connection.
type daemonProc struct {
	cmd  *exec.Cmd
	cpu  cpuClock // the daemon's process CPU clock
	addr string
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// startDaemon starts the daemon and waits until it answers a stats op.
func startDaemon(bin string, seed uint64) (*daemonProc, error) {
	if bin == "" {
		return nil, errors.New("no -daemon binary given")
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-epoch", "0",
		"-ports", strconv.Itoa(dPorts), "-shards", strconv.Itoa(dShards), "-workers", strconv.Itoa(dWorkers),
		"-alg", "islip", "-slot", strconv.Itoa(dSlotPkts*1500)+"B", "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	// The daemon gets one core (see runDaemonLoopback), so one P.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// The daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &daemonProc{cmd: cmd, cpu: processCPUOf(cmd.Process.Pid)}
	// The daemon prints its listen address on its first line.
	line := make(chan string, 1)
	go func() {
		s, _ := bufio.NewReader(stdout).ReadString('\n')
		line <- s
	}()
	select {
	case s := <-line:
		_, addr, ok := strings.Cut(strings.TrimSpace(s), "serving on ")
		if !ok {
			p.stop()
			return nil, fmt.Errorf("daemon banner %q has no address", s)
		}
		p.addr = addr
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("daemon printed no address within 30s")
	}
	if p.conn, err = net.Dial("tcp", p.addr); err != nil {
		p.stop()
		return nil, err
	}
	p.r = bufio.NewReaderSize(p.conn, 64<<10)
	p.w = bufio.NewWriter(p.conn)
	reply, err := p.call([]byte(`{"op":"stats"}` + "\n"))
	if err == nil {
		err = checkReply(reply)
	}
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("first stats op: %w", err)
	}
	return p, nil
}

// call writes one request line and reads one reply line. The reply
// aliases the reader's buffer until the next call.
func (p *daemonProc) call(req []byte) ([]byte, error) {
	if _, err := p.w.Write(req); err != nil {
		return nil, err
	}
	if err := p.w.Flush(); err != nil {
		return nil, err
	}
	return p.r.ReadSlice('\n')
}

// stop kills the daemon and waits for it to exit.
func (p *daemonProc) stop() {
	if p.conn != nil {
		p.conn.Close()
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// replyJSON is the part of a reply every op carries.
type replyJSON struct {
	OK     *bool       `json:"ok"`
	Error  string      `json:"error"`
	Frames []frameJSON `json:"frames"`
}

type frameJSON struct {
	Epoch       uint64 `json:"epoch"`
	Shard       int    `json:"shard"`
	Match       []int  `json:"match"`
	Pairs       int    `json:"pairs"`
	ServedBits  int64  `json:"served_bits"`
	BacklogBits int64  `json:"backlog_bits"`
}

func (f frameJSON) hash() uint64 {
	h := fnv.New64a()
	hashFrame(h, f.Epoch, f.Shard, f.Match, f.ServedBits, f.BacklogBits)
	return h.Sum64()
}

// checkReply requires a JSON reply carrying ok: true, or reports its
// error.
func checkReply(b []byte) error {
	var r replyJSON
	if err := json.Unmarshal(b, &r); err != nil {
		return fmt.Errorf("reply %q is not JSON: %v", b, err)
	}
	if r.OK == nil && r.Error == "" {
		return fmt.Errorf("reply %q carries neither ok nor error", b)
	}
	if r.Error != "" || !*r.OK {
		return fmt.Errorf("refused: %s", r.Error)
	}
	return nil
}

// subscriber reads shard 0's frame stream on its own connection.
type subscriber struct {
	conn    net.Conn
	arrived map[uint64]time.Time
	frames  map[uint64]uint64 // frame hash by epoch
	bytes   int64
	lines   int64
	bad     int64
	last    atomic.Uint64
	got     chan uint64 // epochs as their frames arrive
	wg      sync.WaitGroup
}

func subscribe(addr string) (*subscriber, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &subscriber{conn: conn, arrived: map[uint64]time.Time{}, frames: map[uint64]uint64{}, got: make(chan uint64, 1024)}
	r := bufio.NewReaderSize(conn, 64<<10)
	if _, err := conn.Write([]byte(`{"op":"subscribe","shard":0,"buffer":1024}` + "\n")); err != nil {
		conn.Close()
		return nil, err
	}
	line, err := r.ReadSlice('\n')
	if err == nil {
		err = checkReply(line)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			line, err := r.ReadSlice('\n')
			if err != nil {
				return
			}
			now := time.Now()
			var f frameJSON
			if json.Unmarshal(line, &f) != nil || f.Epoch == 0 {
				s.bad++
				continue
			}
			s.arrived[f.Epoch] = now
			s.frames[f.Epoch] = f.hash()
			s.bytes += int64(len(line))
			s.lines++
			s.last.Store(f.Epoch)
			select {
			case s.got <- f.Epoch:
			default:
			}
		}
	}()
	return s, nil
}

// await waits up to a second for the frame of epoch to arrive.
func (s *subscriber) await(epoch uint64) bool {
	if s.last.Load() >= epoch {
		return true
	}
	t := time.NewTimer(time.Second)
	defer t.Stop()
	for {
		select {
		case ep := <-s.got:
			if ep >= epoch {
				return true
			}
		case <-t.C:
			return false
		}
	}
}

// close waits up to a second for the stream to reach epoch, then closes
// the connection and waits for the reader to exit.
func (s *subscriber) close(epoch uint64) {
	for deadline := time.Now().Add(time.Second); s.last.Load() < epoch && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	s.conn.Close()
	s.wg.Wait()
}

// dEpoch is what one daemon epoch measured: wall times, and the daemon's
// CPU time (ns) at the start, after the offers, when the step was written
// and when both its reply and its frame on the subscriber had arrived.
type dEpoch struct {
	start, offered, stepWrite, stepped, done    time.Time
	cpuStart, cpuOffered, cpuStepWrite, cpuStep int64
	offers                                      int
	pairs, idle                                 int
	served, backlog                             int64
}

// daemonRun drives one daemon.
type daemonRun struct {
	p    *daemonProc
	sub  *subscriber
	rep  *report
	gens [dShards]*flowGen
	bufs [dShards][]offer
	req  []byte
	seen []bool

	epoch    uint64
	offered  [dShards]int64
	served   [dShards]int64
	hash     hash.Hash64
	digest   uint64
	stepSent map[uint64]time.Time
	sent     map[uint64]uint64 // hashes of shard 0 frames from step replies

	tr        *tracer
	reqBytes  int64
	repBytes  int64
	stepBytes int64
	nOffers   int64
	nSteps    int64
	pairs     int64 // matched pairs over measured epochs, both shards
	idle      int64 // shard-epochs with an empty matching
}

func newDaemonGens(seed uint64) [dShards]*flowGen {
	var g [dShards]*flowGen
	for i := range g {
		g[i] = newFlowGen(seed, uint64(10+i), dPorts, dLoad, dSlotPkts, dFlowPkts)
	}
	return g
}

func (d *daemonRun) offerReq(shard int, o offer) []byte {
	b := append(d.req[:0], `{"op":"offer","shard":`...)
	b = strconv.AppendInt(b, int64(shard), 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(o.src()), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(o.dst()), 10)
	b = append(b, `,"bits":`...)
	b = strconv.AppendInt(b, pktBits, 10)
	b = append(b, "}\n"...)
	d.req = b
	return b
}

// runEpoch offers one epoch of generated demand to both shards, one
// round trip at a time, then steps and checks the frames.
func (d *daemonRun) runEpoch() dEpoch {
	var e dEpoch
	for i := range d.gens {
		d.bufs[i] = d.gens[i].epoch(d.bufs[i][:0])
		e.offers += len(d.bufs[i])
	}
	epochNo := d.epoch + 1
	var root int32 = -1
	if d.tr != nil {
		root = d.tr.begin(spEpoch, -1, epochNo)
	}
	e.cpuStart = d.p.cpu.now()
	e.start = time.Now()
	for shard, buf := range d.bufs {
		for _, o := range buf {
			d.rep.attempted++
			req := d.offerReq(shard, o)
			t0 := time.Now()
			reply, err := d.p.call(req)
			if d.tr != nil {
				d.tr.add(spOffer, root, epochNo, t0, time.Now())
				d.reqBytes += int64(len(req))
				d.repBytes += int64(len(reply))
				d.nOffers++
			}
			if err == nil {
				err = checkReply(reply)
			}
			if err != nil {
				d.rep.fail("offer %d %d->%d: %v", shard, o.src(), o.dst(), err)
				continue
			}
			d.offered[shard] += pktBits
		}
	}
	e.offered = time.Now()
	e.cpuOffered = d.p.cpu.now()
	d.rep.attempted++
	e.cpuStepWrite = d.p.cpu.now()
	e.stepWrite = time.Now()
	d.stepSent[epochNo] = e.stepWrite
	reply, err := d.p.call([]byte(`{"op":"step"}` + "\n"))
	e.stepped = time.Now()
	// The daemon writes the frame to the subscriber after the reply, or
	// before it, as the scheduler happens to order its goroutines; the
	// step's CPU time is read once both have arrived, so it always
	// covers both.
	if err == nil && !d.sub.await(epochNo) {
		d.rep.fail("frame of epoch %d did not reach the subscriber within 1s", epochNo)
	}
	e.cpuStep = d.p.cpu.now()
	if d.tr != nil {
		d.tr.add(spStep, root, epochNo, e.stepWrite, e.stepped)
		d.stepBytes += int64(len(reply))
		d.nSteps++
	}
	if err != nil {
		d.rep.fail("step %d: %v", epochNo, err)
		e.done = time.Now()
		return e
	}
	d.epoch = epochNo
	d.checkStep(reply, &e)
	if d.tr != nil {
		d.tr.end(root)
	}
	e.done = time.Now()
	return e
}

// checkStep verifies a step reply: JSON with ok, one frame per shard
// for this epoch, valid partial permutations, and conservation per shard.
func (d *daemonRun) checkStep(reply []byte, e *dEpoch) {
	var r replyJSON
	if err := json.Unmarshal(reply, &r); err != nil || r.OK == nil || !*r.OK {
		d.rep.fail("step %d: bad reply %q", d.epoch, reply)
		return
	}
	if len(r.Frames) != dShards {
		d.rep.fail("step %d: %d frames, want %d", d.epoch, len(r.Frames), dShards)
		return
	}
	for i, f := range r.Frames {
		if f.Epoch != d.epoch || f.Shard != i {
			d.rep.fail("frame labelled epoch %d shard %d, want %d/%d", f.Epoch, f.Shard, d.epoch, i)
		}
		if err := checkMatching(f.Match, dPorts, f.Pairs, d.seen); err != nil {
			d.rep.fail("epoch %d shard %d: %v", d.epoch, i, err)
		}
		if f.ServedBits < 0 || f.ServedBits > int64(f.Pairs)*dSlotPkts*pktBits {
			d.rep.fail("epoch %d shard %d: served %d bits with %d pairs", d.epoch, i, f.ServedBits, f.Pairs)
		}
		d.served[i] += f.ServedBits
		if d.offered[i] != d.served[i]+f.BacklogBits {
			d.rep.fail("epoch %d shard %d: offered %d != served %d + backlog %d",
				d.epoch, i, d.offered[i], d.served[i], f.BacklogBits)
		}
		e.pairs += f.Pairs
		if f.Pairs == 0 {
			e.idle++
		}
		e.served += f.ServedBits
		e.backlog += f.BacklogBits
		if d.epoch <= dWarmup {
			hashFrame(d.hash, f.Epoch, f.Shard, f.Match, f.ServedBits, f.BacklogBits)
		}
	}
	if d.epoch == dWarmup {
		d.digest = d.hash.Sum64()
	}
	d.sent[d.epoch] = r.Frames[0].hash()
}

// measure runs epochs back to back for dur. Program time is the daemon's
// CPU time over the epoch's round trips, ingest its CPU time over the
// offer round trips, and the decision its CPU time from writing the step
// until its reply and its frame on the subscriber have arrived.
func (d *daemonRun) measure(dur time.Duration) *tally {
	out := newTally(0)
	for start := time.Now(); time.Since(start) < dur; {
		e := d.runEpoch()
		out.add(obs{
			busy:     e.cpuStep - e.cpuStart,
			ingest:   e.cpuOffered - e.cpuStart,
			decision: e.cpuStep - e.cpuStepWrite,
			wall:     int64(e.done.Sub(e.start)),
			epochs:   1,
			offers:   int64(e.offers),
			served:   e.served,
			backlog:  e.backlog,
		})
		d.pairs += int64(e.pairs)
		d.idle += int64(e.idle)
	}
	return out
}

func runDaemonLoopback(cfg config) (*report, error) {
	rep := newReport()
	var p *daemonProc
	setup, err := medianSetup(15, func() error {
		var err error
		p, err = startDaemon(cfg.daemon, cfg.seed)
		return err
	}, func() { p.stop() })
	if err != nil {
		return nil, err
	}
	defer p.stop()
	rep.metrics["setup_s"] = setup
	// Client and daemon share one core, each with one P: every round
	// trip is then a hand-off on one CPU. On two cores every request
	// woke an idle CPU, and in interleaved runs the daemon spent about
	// 1.6x the CPU time per offer and 1.2x per step: the cost of the
	// wake-ups and of its runtime spinning while it waited, not of its
	// own work.
	cpu, err := firstCPU()
	if err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	if err := pin("self", cpu); err != nil {
		return nil, err
	}
	if err := pin(strconv.Itoa(p.cmd.Process.Pid), cpu); err != nil {
		return nil, err
	}
	sub, err := subscribe(p.addr)
	if err != nil {
		return nil, err
	}
	d := &daemonRun{
		p: p, sub: sub, rep: rep, gens: newDaemonGens(cfg.seed), seen: make([]bool, dPorts),
		hash: fnv.New64a(), stepSent: map[uint64]time.Time{}, sent: map[uint64]uint64{},
	}
	for i := 0; i < dWarmup; i++ {
		d.runEpoch()
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var timed, traced *tally
	var tr *tracer
	var tracedFrom, tracedTo time.Time
	if !cfg.trace {
		timed = d.measure(dur)
		rss, err := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
		if err != nil {
			return nil, err
		}
		rep.metrics["peak_rss_mb"] = rss
	} else {
		d.tr = newTracer()
		cpu0 := p.cpu.now()
		tracedFrom = time.Now()
		traced = d.measure(dur / 2)
		tracedTo = time.Now()
		cpu1 := p.cpu.now()
		m := rep.metrics
		m["daemon.cpu_us_per_op"] = float64(cpu1-cpu0) / 1e3 / float64(max(d.nOffers+d.nSteps, 1))
		m["daemon.req_bytes_per_offer"] = float64(d.reqBytes) / float64(max(d.nOffers, 1))
		m["daemon.reply_bytes_per_op"] = float64(d.repBytes) / float64(max(d.nOffers, 1))
		m["daemon.step_reply_bytes"] = float64(d.stepBytes) / float64(max(d.nSteps, 1))
		rtt := d.tr.durations(spOffer)
		m["daemon.offer_rtt_us.p50"] = quantile(rtt, 0.5) / 1e3
		m["daemon.offer_rtt_us.p99"] = quantile(rtt, 0.99) / 1e3
		n := float64(max(traced.samples(), 1))
		var backlog float64
		for _, b := range traced.backlog {
			backlog += float64(b)
		}
		m["serve.pairs_per_epoch"] = float64(d.pairs) / n
		m["serve.idle_epoch_ratio"] = float64(d.idle) / (n * dShards)
		m["serve.offers_per_epoch"] = float64(traced.offers) / n
		m["serve.backlog_mbit"] = backlog / n / 1e6
		tr, d.tr = d.tr, nil
		timed = d.measure(dur / 2)
		m["bench.trace_overhead_pct"] = 100 * (traced.meanWall()/timed.meanWall() - 1)
	}
	endToEndFrom(timed, rep)
	rep.metrics["served_ratio"] = timed.servedRatio()
	n := timed.samples()
	load := float64(timed.offers) / (float64(n) * dShards * dPorts * dSlotPkts)
	rep.note("traffic: %d epochs, offered load %.3f of slot capacity (target %.2f), %.1f offers/epoch, mean flow %.1f pkts",
		n, load, dLoad, float64(timed.offers)/float64(max(n, 1)), d.gens[0].meanFlow())
	growing, second, last := timed.backlogGrowing(dShards * dPorts * dSlotPkts * pktBits)
	rep.note("backlog: %.3f Mbit mean in the 2nd quarter, %.3f Mbit in the 4th", second/1e6, last/1e6)
	if growing {
		rep.fail("backlog kept growing: %.3f -> %.3f Mbit", second/1e6, last/1e6)
	}

	d.finish()
	sub.close(d.epoch)
	d.checkSubscriber(sub)
	if cfg.trace {
		// Frame spans join the step writes with the subscriber's
		// arrivals, so they are added once the stream is closed.
		d.frameLayer(sub, tracedFrom, tracedTo, tr, rep.metrics)
		tr.selfTimeNotes(rep)
		if path, err := tr.write(cfg.out, "daemon_loopback"); err == nil {
			rep.note("spans: %d written to %s", len(tr.spans), path)
		}
	}

	// The same offers through an in-process Service must give the same
	// frames: the digest of the first dWarmup epochs repeats.
	v, err := inProcessDigest(cfg.seed)
	if err != nil {
		return nil, err
	}
	rep.note("digest %016x over epochs 1..%d (in-process replay %016x)", d.digest, dWarmup, v)
	if v != d.digest {
		rep.fail("frame digest did not repeat: daemon %016x, in-process %016x", d.digest, v)
	}
	return rep, nil
}

// finish checks the daemon's own totals against the benchmark's.
func (d *daemonRun) finish() {
	reply, err := d.p.call([]byte(`{"op":"stats"}` + "\n"))
	d.rep.attempted++
	if err != nil {
		d.rep.fail("stats: %v", err)
		return
	}
	var r struct {
		OK    bool `json:"ok"`
		Stats []struct {
			Epochs      uint64 `json:"epochs"`
			OfferedBits int64  `json:"offered_bits"`
			ServedBits  int64  `json:"served_bits"`
			BacklogBits int64  `json:"backlog_bits"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(reply, &r); err != nil || !r.OK || len(r.Stats) != dShards {
		d.rep.fail("stats reply %q", reply)
		return
	}
	for i, s := range r.Stats {
		if s.Epochs != d.epoch || s.OfferedBits != d.offered[i] || s.ServedBits != d.served[i] ||
			s.OfferedBits != s.ServedBits+s.BacklogBits {
			d.rep.fail("shard %d totals %+v disagree with benchmark offered=%d served=%d epochs=%d",
				i, s, d.offered[i], d.served[i], d.epoch)
		}
	}
}

// checkSubscriber requires every frame the subscriber saw to match the
// step reply for the same epoch.
func (d *daemonRun) checkSubscriber(sub *subscriber) {
	d.rep.attempted += sub.lines + sub.bad
	d.rep.failed += sub.bad
	for ep, h := range sub.frames {
		if want, ok := d.sent[ep]; !ok || want != h {
			d.rep.fail("subscriber frame of epoch %d differs from the step reply", ep)
		}
	}
}

// frameLayer derives the subscriber-side metrics of the traced phase.
func (d *daemonRun) frameLayer(sub *subscriber, lo, hi time.Time, tr *tracer, m map[string]float64) {
	var lat []time.Duration
	missed := uint64(0)
	first := uint64(0)
	for ep := range sub.arrived {
		if first == 0 || ep < first {
			first = ep
		}
	}
	for ep := first; ep <= d.epoch && first > 0; ep++ {
		if _, ok := sub.arrived[ep]; !ok {
			missed++
		}
	}
	for ep, t := range sub.arrived {
		w, ok := d.stepSent[ep]
		if !ok || w.Before(lo) || w.After(hi) {
			continue
		}
		lat = append(lat, t.Sub(w))
		tr.add(spFrame, -1, ep, w, t)
	}
	m["daemon.frame_us.p99"] = durQuantileUs(lat, 0.99)
	m["daemon.frame_line_bytes"] = float64(sub.bytes) / float64(max(sub.lines, 1))
	m["daemon.frames_missed"] = float64(missed)
}

// inProcessDigest feeds the daemon workload's first dWarmup epochs to an
// in-process Service of the same configuration and hashes its frames.
func inProcessDigest(seed uint64) (uint64, error) {
	svc, err := hybridsched.NewService(hybridsched.ServiceConfig{
		Ports: dPorts, Algorithm: "islip", Seed: seed,
		SlotBits: dSlotPkts * pktBits, Shards: dShards, Workers: dWorkers,
	})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	gens := newDaemonGens(seed)
	h := fnv.New64a()
	var buf []offer
	for ep := 0; ep < dWarmup; ep++ {
		for shard, g := range gens {
			buf = g.epoch(buf[:0])
			for _, o := range buf {
				if err := svc.OfferShard(shard, o.src(), o.dst(), pktBits); err != nil {
					return 0, err
				}
			}
		}
		frames, err := svc.Step()
		if err != nil {
			return 0, err
		}
		for _, f := range frames {
			hashFrame(h, f.Epoch, f.Shard, f.Match, f.ServedBits, f.BacklogBits)
		}
	}
	return h.Sum64(), nil
}

// firstCPU returns the lowest-numbered CPU this process may run on.
func firstCPU() (int, error) {
	var mask [16]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return 0, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for i, w := range mask {
		if w != 0 {
			return 64*i + bits.TrailingZeros64(w), nil
		}
	}
	return 0, errors.New("empty CPU affinity mask")
}

// pin binds every thread of process pid ("self" or a number) to one CPU.
// Threads the process creates later inherit the binding from their
// creator; the second pass catches threads created during the first.
func pin(pid string, cpu int) error {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir(filepath.Join("/proc", pid, "task"))
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
				uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH {
				return fmt.Errorf("pin thread %d to CPU %d: %w", tid, cpu, errno)
			}
		}
	}
	return nil
}
