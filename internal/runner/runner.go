// Package runner is the deterministic parallel scenario-execution engine.
//
// The simulation kernel (internal/sim) is deliberately single-threaded;
// parallelism belongs across independent simulation configurations. This
// package provides that layer: a fixed-size worker pool fans Jobs out over
// GOMAXPROCS workers (or any explicit count), and results are collected in
// submission order, so every consumer's output is byte-identical whether it
// ran on one worker or sixty-four.
//
// Three layers ride on it: cmd/sweep parallelizes over sweep values,
// cmd/figures over experiment IDs, and internal/experiments over the
// per-point simulation runs inside each experiment.
package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"hybridsched/internal/fabric"
	"hybridsched/internal/rng"
	"hybridsched/internal/sim"
	"hybridsched/internal/trace"
	"hybridsched/internal/traffic"
	"hybridsched/internal/units"
)

// DefaultDrain is the drain fraction applied when a Job leaves Drain at
// zero: the run continues for Duration*DefaultDrain after the workload
// stops so queues flush. It is the single source of truth for the default;
// the public Scenario API re-exports it.
const DefaultDrain = 0.5

// Pool is a fixed-size worker pool. It holds no state between calls; the
// same Pool may be used concurrently and reused freely.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count. A count of zero or less
// selects GOMAXPROCS — the whole point of the engine is to keep every core
// busy with independent simulations.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Map runs fn(i) for every i in [0, n) on p's workers and returns the
// results in index order. All jobs run to completion even when some fail;
// the returned error is the failure with the lowest index, so error
// reporting is as deterministic as the results themselves.
func Map[T any](p *Pool, n int, fn func(int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, same submission order.
		for i := 0; i < n; i++ {
			results[i], errs[i] = fn(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range jobs {
					results[i], errs[i] = fn(i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Job is one self-contained simulation: a fabric configuration, a workload,
// and how long to offer it. Each Job builds its own simulator, so jobs are
// independent by construction and safe to run concurrently.
type Job struct {
	Fabric  fabric.Config
	Traffic traffic.Config
	// Duration is how long traffic is offered. The run continues for
	// Duration*Drain afterwards so queues flush. Drain defaults to
	// DefaultDrain.
	Duration units.Duration
	Drain    float64
	// SampleEvery, when positive and Observer is set, emits one fabric
	// Sample per interval of simulated time for the whole run (offered
	// traffic plus drain). Sampling is read-only: the simulated event
	// sequence, and therefore every metric, is identical with or without
	// an observer attached.
	SampleEvery units.Duration
	// Observer receives the periodic samples. It is called on the
	// goroutine running the job, in simulated-time order.
	Observer func(fabric.Sample)
	// Replay, when non-empty, replaces the traffic generator: each
	// record's packet is injected at its recorded time, so any captured
	// workload runs bit-identically against any fabric configuration.
	// Traffic is ignored in this mode.
	Replay []trace.Record
	// CaptureTo, when non-nil, receives the offered workload as a
	// complete HSTR trace, written once the run succeeds. Capture taps
	// the injection path read-only: metrics are bit-identical with or
	// without it.
	CaptureTo io.Writer
}

// Run executes the job on the calling goroutine and returns the final
// metrics plus the fabric, for callers that want to inspect component
// state post-run.
func (j Job) Run() (fabric.Metrics, *fabric.Fabric, error) {
	return j.RunContext(context.Background())
}

// EffectiveTraffic returns the workload as the engine will run it: Until
// defaults to the offered Duration. RunContext and the public scenario
// validator share this one copy of the rule.
func (j Job) EffectiveTraffic() traffic.Config {
	tc := j.Traffic
	if tc.Until == 0 {
		tc.Until = units.Time(j.Duration)
	}
	return tc
}

// RunContext is Run under a context: a cancellation or deadline aborts the
// simulation between bounded chunks of simulated time and returns ctx's
// error. A context without cancellation adds zero overhead.
func (j Job) RunContext(ctx context.Context) (fabric.Metrics, *fabric.Fabric, error) {
	if err := ctx.Err(); err != nil {
		return fabric.Metrics{}, nil, err
	}
	if j.Drain < 0 {
		return fabric.Metrics{}, nil, fmt.Errorf("runner: Drain must be non-negative")
	}
	if j.SampleEvery < 0 {
		return fabric.Metrics{}, nil, fmt.Errorf("runner: SampleEvery must be non-negative")
	}
	drain := j.Drain
	if drain == 0 {
		drain = DefaultDrain
	}
	s := sim.New()
	f, err := fabric.New(s, j.Fabric)
	if err != nil {
		return fabric.Metrics{}, nil, err
	}
	emit := f.Inject
	var captured []trace.Record
	if j.CaptureTo != nil {
		emit = trace.Capture(&captured, f.Inject)
	}
	f.Start()
	if len(j.Replay) > 0 {
		// The fabric indexes per-port state by Src/Dst, and records past
		// the offered window would be silently dropped or injected during
		// the drain; both must fail cleanly, not corrupt the run.
		for i, r := range j.Replay {
			if int(r.Src) >= j.Fabric.Ports || int(r.Dst) >= j.Fabric.Ports {
				return fabric.Metrics{}, nil, fmt.Errorf(
					"runner: replay record %d ports (%d->%d) outside the %d-port fabric",
					i, r.Src, r.Dst, j.Fabric.Ports)
			}
			if r.Time > units.Time(j.Duration) {
				return fabric.Metrics{}, nil, fmt.Errorf(
					"runner: replay record %d at %v is beyond the %v offered window",
					i, r.Time, j.Duration)
			}
		}
		if _, err := trace.Replay(s, j.Replay, emit); err != nil {
			return fabric.Metrics{}, nil, err
		}
	} else {
		gen, err := traffic.New(j.EffectiveTraffic())
		if err != nil {
			return fabric.Metrics{}, nil, err
		}
		gen.Start(s, emit)
	}
	var ticker *sim.Ticker
	if j.SampleEvery > 0 && j.Observer != nil {
		ticker = s.NewTicker(j.SampleEvery, func() { j.Observer(f.Sample()) })
	}
	err = runUntil(ctx, s, units.Time(j.Duration))
	if err == nil {
		err = runUntil(ctx, s, units.Time(float64(j.Duration)*(1+drain)))
	}
	if ticker != nil {
		ticker.Stop()
	}
	f.Stop()
	if err != nil {
		return fabric.Metrics{}, nil, err
	}
	if j.CaptureTo != nil {
		if err := trace.WriteAll(j.CaptureTo, captured); err != nil {
			return fabric.Metrics{}, nil, fmt.Errorf("runner: write captured trace: %w", err)
		}
	}
	return f.Metrics(), f, nil
}

// cancelCheckChunks bounds how stale a cancellation can go unnoticed: the
// context is polled this many times across each run phase.
const cancelCheckChunks = 64

// runUntil advances the simulation to t. With a cancellable context it
// runs in chunks of simulated time, polling ctx between chunks, so a
// cancellation lands mid-run instead of after it; the chunking does not
// reorder events and leaves results bit-identical.
func runUntil(ctx context.Context, s *sim.Simulator, t units.Time) error {
	if ctx.Done() == nil {
		s.RunUntil(t)
		return nil
	}
	start := s.Now()
	chunk := t.Sub(start) / cancelCheckChunks
	for k := units.Duration(1); k < cancelCheckChunks && chunk > 0; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.RunUntil(start.Add(chunk * k))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.RunUntil(t)
	return ctx.Err()
}

// RunScenarios fans the jobs out over the pool and returns their metrics
// in submission order.
func (p *Pool) RunScenarios(jobs []Job) ([]fabric.Metrics, error) {
	return p.RunScenariosContext(context.Background(), jobs)
}

// RunScenariosContext is RunScenarios under a context: once ctx is
// canceled, running jobs abort and not-yet-started jobs return immediately,
// and the first (lowest-index) error is returned.
func (p *Pool) RunScenariosContext(ctx context.Context, jobs []Job) ([]fabric.Metrics, error) {
	return Map(p, len(jobs), func(i int) (fabric.Metrics, error) {
		m, _, err := jobs[i].RunContext(ctx)
		return m, err
	})
}

// DeriveSeed maps a base seed and a job index to a decorrelated per-job
// seed (splitmix64 of base+index), so a fan-out of related scenarios gets
// independent yet reproducible random streams regardless of which worker
// runs which job.
func DeriveSeed(base uint64, index int) uint64 {
	state := base + uint64(index)*0x9e3779b97f4a7c15
	return rng.SplitMix64(&state)
}
