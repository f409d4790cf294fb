package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"hybridsched/internal/runner"
	"hybridsched/internal/trace"
)

// SourceFactory builds a per-shard load source. Each shard needs its own
// source (sources carry a private simulator and are not concurrent-safe);
// seed is the shard's derived seed, so shards draw independent yet
// reproducible workload streams.
type SourceFactory func(shard int, seed uint64) (Source, error)

// Sharded is N independent fabric shards behind one service: one process
// serving many switches. Each shard is a full Scheduler (own demand
// matrix, algorithm instance, subscribers); Step fans the per-shard
// epochs out over the deterministic worker pool in internal/runner, and
// Snapshot/Restore checkpoint all shards into a single HSTR trace.
type Sharded struct {
	shards    []*Scheduler
	pool      *runner.Pool
	done      chan struct{}
	closeOnce sync.Once
}

// NewSharded builds shards copies of cfg, seeded with
// runner.DeriveSeed(cfg.Seed, shard) so their randomized algorithms and
// workload sources are decorrelated. cfg.Source must be nil — per-shard
// sources come from newSource (which may be nil for push-only services).
// cfg.Shard is overridden with each shard's index, so a shared
// cfg.Metrics registry keeps the shards' instruments distinct. workers
// sizes the Step fan-out pool (0 = GOMAXPROCS).
func NewSharded(shards, workers int, cfg Config, newSource SourceFactory) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("serve: need at least 1 shard, have %d", shards)
	}
	if cfg.Source != nil {
		return nil, fmt.Errorf("serve: sharded services take a SourceFactory, not Config.Source")
	}
	sh := &Sharded{pool: runner.New(workers), done: make(chan struct{})}
	for i := 0; i < shards; i++ {
		c := cfg
		c.Seed = runner.DeriveSeed(cfg.Seed, i)
		if newSource != nil {
			src, err := newSource(i, c.Seed)
			if err != nil {
				sh.Close()
				return nil, fmt.Errorf("serve: shard %d source: %w", i, err)
			}
			c.Source = src
		}
		c.Shard = i
		s, err := New(c)
		if err != nil {
			sh.Close()
			return nil, err
		}
		sh.shards = append(sh.shards, s)
	}
	return sh, nil
}

// Shards returns the shard count.
func (sh *Sharded) Shards() int { return len(sh.shards) }

// Shard returns shard i's scheduler for direct use (Offer, Subscribe,
// manual Step of a single shard).
func (sh *Sharded) Shard(i int) *Scheduler { return sh.shards[i] }

// Offer adds demand to one shard.
func (sh *Sharded) Offer(shard, src, dst int, bits int64) error {
	if shard < 0 || shard >= len(sh.shards) {
		return fmt.Errorf("serve: shard %d outside [0,%d)", shard, len(sh.shards))
	}
	return sh.shards[shard].Offer(src, dst, bits)
}

// Step runs one epoch on every shard, fanned out over the worker pool,
// and returns the frames in shard order — identical at any worker count.
// Frames are caller-owned (StepOwned per shard): later epochs never
// rewrite them.
func (sh *Sharded) Step() ([]Frame, error) {
	return runner.Map(sh.pool, len(sh.shards), func(i int) (Frame, error) {
		return sh.shards[i].StepOwned()
	})
}

// tick runs one epoch on every shard for Run, where nobody reads the
// frames: it neither clones matchings nor builds a []Frame (subscribers
// still get their published clones). Every shard steps even when one
// fails, and the failure with the lowest shard index is returned, as in
// Step. With one shard or one worker the shards step serially on the
// calling goroutine, allocation-free.
func (sh *Sharded) tick() error {
	if len(sh.shards) == 1 || sh.pool.Workers() <= 1 {
		var first error
		for _, s := range sh.shards {
			if _, err := s.Step(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	_, err := runner.Map(sh.pool, len(sh.shards), func(i int) (struct{}, error) {
		_, err := sh.shards[i].Step()
		return struct{}{}, err
	})
	return err
}

// Run steps every shard once per interval tick of wall-clock time until
// ctx is canceled or the service is closed. It returns ctx.Err() on
// cancellation and nil when stopped by Close (which it notices
// immediately, not at the next tick). Frames go to subscribers only.
func (sh *Sharded) Run(ctx context.Context, interval time.Duration) error {
	return runTicks(ctx, interval, sh.done, sh.tick)
}

// Stats returns per-shard summaries in shard order.
func (sh *Sharded) Stats() []Stats {
	out := make([]Stats, len(sh.shards))
	for i, s := range sh.shards {
		out[i] = s.Stats()
	}
	return out
}

// Snapshot checkpoints every shard into one HSTR trace: per-shard epoch
// markers plus demand records, shard by shard in canonical order.
func (sh *Sharded) Snapshot(w io.Writer) error {
	var recs []trace.Record
	var err error
	for i, s := range sh.shards {
		recs, err = s.snapshotRecords(i, recs)
		if err != nil {
			return err
		}
	}
	return trace.WriteAll(w, recs)
}

// Restore loads a multi-shard snapshot into this service. The shard
// counts must match: every shard in the trace needs a scheduler and vice
// versa (markers make empty shards explicit).
func (sh *Sharded) Restore(r io.Reader) error {
	recs, err := trace.ReadAll(r)
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	for _, rec := range recs {
		if rec.Flow >= uint64(len(sh.shards)) {
			return fmt.Errorf("serve: restore: snapshot shard %d outside this %d-shard service",
				rec.Flow, len(sh.shards))
		}
	}
	for i, s := range sh.shards {
		if err := s.restoreShard(recs, i); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every shard. Idempotent.
func (sh *Sharded) Close() error {
	sh.closeOnce.Do(func() { close(sh.done) })
	for _, s := range sh.shards {
		s.Close()
	}
	return nil
}
