// Command perfbench is the end-to-end benchmark of hybridsched. It
// generates seeded, flow-structured load itself, feeds it to one of four
// paths through the scheduler, checks the outputs, and prints the
// metrics as one JSON line on standard output:
//
//	perfbench --workload serve_ingest --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload once untraced and once traced (spans recorded by
// this program around its calls into each layer) and reports the
// per-layer metrics derived from the spans. README.md lists every
// metric, workload and the layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the scheduler sees; every workload
// reports every one of them with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"epochs_per_s", "1/s"},
	{"offers_per_s", "1/s"},
	{"decision_p50_us", "us"},
	{"decision_p90_us", "us"},
	{"served_ratio", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// cross reports 0: no work was done there.
var perLayer = []metricDef{
	{"daemon.cpu_us_per_op", "us"},
	{"daemon.req_bytes_per_offer", "B"},
	{"daemon.reply_bytes_per_op", "B"},
	{"daemon.step_reply_bytes", "B"},
	{"daemon.frame_line_bytes", "B"},
	{"daemon.frames_missed", "count"},
	{"daemon.offer_rtt_us.p50", "us"},
	{"daemon.offer_rtt_us.p99", "us"},
	{"daemon.frame_us.p99", "us"},
	{"service.offer_ns.p50", "ns"},
	{"service.offer_ns.p99", "ns"},
	{"service.step_us.p50", "us"},
	{"service.step_us.p99", "us"},
	{"service.allocs_per_epoch", "count"},
	{"service.bytes_per_epoch", "B"},
	{"serve.ingest_us_per_epoch", "us"},
	{"serve.offers_per_epoch", "count"},
	{"serve.step_self_us", "us"},
	{"serve.pairs_per_epoch", "count"},
	{"serve.idle_epoch_ratio", "ratio"},
	{"serve.backlog_mbit", "Mbit"},
	{"match.schedule_us.p50", "us"},
	{"match.schedule_us.p99", "us"},
	{"match.decompose_ms.p50", "ms"},
	{"match.decompose_ms.p99", "ms"},
	{"match.frames_per_1k_epochs", "count"},
	{"match.pair_yield", "ratio"},
	{"match.mirror_mismatches", "count"},
	{"demand.nonzeros", "count"},
	{"demand.copy_us", "us"},
	{"demand.touched_row_share", "ratio"},
	{"fabric.wall_us_per_cycle", "us"},
	{"fabric.pkts_per_s", "1/s"},
	{"fabric.idle_cycle_ratio", "ratio"},
	{"fabric.delivered_ratio", "ratio"},
	{"fabric.sim_ms_per_s", "ms/s"},
	{"go.gc_cycles_per_1k_epochs", "count"},
	{"go.gc_pause_us_total", "us"},
	{"bench.gen_late_us.p99", "us"},
	{"bench.deadline_miss_ratio", "ratio"},
	{"bench.decision_p99_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	daemon  string // path of the hybridschedd binary (daemon_loopback)
	out     string // directory for span dumps
}

// report is what a workload run produces. failures lists every failed
// operation or output check by description; failed counts them.
type report struct {
	attempted int64
	failed    int64
	failures  []string
	metrics   map[string]float64
	notes     []string // traffic verification and digests, printed to stderr
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"serve_ingest", runServeIngest},
	{"serve_frames", runServeFrames},
	{"daemon_loopback", runDaemonLoopback},
	{"batch_sim", runBatchSim},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (serve_ingest, serve_frames, daemon_loopback, batch_sim)")
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 10, "measured time per run")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
		daemon  = fs.String("daemon", "", "hybridschedd binary for daemon_loopback")
		out     = fs.String("out", ".bench_build", "directory for span dumps")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, have %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, daemon: *daemon, out: *out}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	rep, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return emit(os.Stdout, w.name, cfg, rep)
}

// emit prints the human-readable summary to stderr and the result line
// to w. A metric the workload should have produced but did not is a
// benchmark bug, reported as an error rather than a made-up value.
func emit(w *os.File, name string, cfg config, rep *report) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g trace=%v\n", name, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			if !cfg.trace {
				return fmt.Errorf("workload produced no %s", d.name)
			}
			v = 0
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d error_rate=%.3g\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "  FAILED:", f)
	}
	if rep.attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// obs is one timed operation of a measured phase, as a tally takes it:
// an epoch of the serve workloads, an observer interval of the batch
// simulator. busy, ingest
// and decision are CPU time (cpuClock) of the process serving the load,
// so that other tenants of the host move them as little as possible;
// wall is wall time.
type obs struct {
	busy     int64 // CPU ns the program spent on it
	ingest   int64 // CPU ns of those spent taking in demand
	decision int64 // CPU ns one scheduling decision took
	wall     int64 // wall ns of everything done for it, tracing included
	epochs   int64 // scheduling epochs (cycles) it covers
	offers   int64
	served   int64 // bits
	backlog  int64 // bits pending after it
}

// tally is a measured phase: sums over its samples, and each sample's
// decision time and backlog, 8 bytes a sample. On the in-process
// workloads peak_rss_mb counts the benchmark's own memory too, so the
// samples are kept small: a faster program runs more of them in a run.
type tally struct {
	busy, ingest, wall, epochs, offers, served int64
	decision                                   []float32 // µs
	backlog                                    []float32 // bits
}

// newTally returns a tally with room for n samples.
func newTally(n int) *tally {
	return &tally{decision: make([]float32, 0, n), backlog: make([]float32, 0, n)}
}

func (t *tally) add(o obs) {
	t.busy += o.busy
	t.ingest += o.ingest
	t.wall += o.wall
	t.epochs += o.epochs
	t.offers += o.offers
	t.served += o.served
	t.decision = append(t.decision, float32(o.decision)/1e3)
	t.backlog = append(t.backlog, float32(o.backlog))
}

// samples is the number of samples added.
func (t *tally) samples() int { return len(t.decision) }

// endToEndFrom computes the timing and throughput metrics of a measured
// (untraced) phase: epochs per second of program CPU time, offers per
// second of ingest CPU time, and the decision median and 90th percentile
// over every sample. Nothing is windowed or dropped. The 99th percentile
// is reported too, as a per-layer figure: it mostly measures garbage
// collection and the host's own hiccups, and spreads too much from run
// to run to gate on.
func endToEndFrom(t *tally, rep *report) {
	m := rep.metrics
	dec := make([]float64, len(t.decision))
	for i, d := range t.decision {
		dec[i] = float64(d)
	}
	m["epochs_per_s"] = float64(t.epochs) / (float64(t.busy) / 1e9)
	m["offers_per_s"] = float64(t.offers) / (float64(t.ingest) / 1e9)
	m["decision_p50_us"] = quantile(dec, 0.5)
	m["decision_p90_us"] = quantile(dec, 0.9)
	m["bench.decision_p99_us"] = quantile(dec, 0.99)
	rep.note("decisions: %d, p50 %.1f us, p90 %.1f us, p99 %.1f us",
		len(dec), m["decision_p50_us"], m["decision_p90_us"], m["bench.decision_p99_us"])
}

// servedRatio is served bits over offered bits for a phase.
func (t *tally) servedRatio() float64 {
	return float64(t.served) / float64(max(t.offers*pktBits, 1))
}

// meanWall is the mean wall time per sample, in ns.
func (t *tally) meanWall() float64 { return float64(t.wall) / float64(max(t.samples(), 1)) }

// backlogGrowing reports whether the backlog kept growing through a
// phase: the mean backlog rises from each quarter to the next after the
// first, and the last quarter's exceeds the second's by more than a
// quarter and by more than slack bits. A bounded queue wanders; it does
// not climb like that.
func (t *tally) backlogGrowing(slack float64) (bool, float64, float64) {
	n := len(t.backlog)
	var q [4]float64
	for i := range q {
		part := t.backlog[i*n/4 : (i+1)*n/4]
		for _, b := range part {
			q[i] += float64(b)
		}
		q[i] /= float64(max(len(part), 1))
	}
	climbing := q[1] < q[2] && q[2] < q[3]
	return climbing && q[3]-q[1] > 0.25*q[1] && q[3]-q[1] > slack, q[1], q[3]
}

// durQuantileUs returns the q-quantile of ds in microseconds.
func durQuantileUs(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e3
	}
	return quantile(xs, q)
}

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// medianSetup runs setup reps times and returns the median wall duration
// in seconds. Set-up time is at most milliseconds, so one sample is
// mostly noise; the median of several is steady. Each rep starts cold:
// two garbage collections empty the sync.Pool caches an earlier rep
// filled. Then, before every rep but the first, teardown removes what the
// previous one built, untimed. It runs after the collections, so the
// memory it frees is not reused yet and every rep, like a new process,
// builds on memory fresh from the OS.
func medianSetup(reps int, setup func() error, teardown func()) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		runtime.GC()
		if i > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}
