package hybridsched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"hybridsched/internal/serve"
	"hybridsched/internal/traffic"
	"hybridsched/internal/units"
)

// The online scheduling service: the paper's estimate -> match -> schedule
// loop as a long-lived process instead of a finite simulation. A Service
// ingests streaming demand (Offer / OfferRecords, or a live flow-level
// workload via ServiceConfig.Workload), computes one matching per epoch
// with any registered algorithm, and streams the resulting frames to
// subscribers over bounded channels. One Service can carry many
// independent fabric shards; epochs fan out over the deterministic worker
// pool. cmd/hybridschedd serves this API over JSON lines on a listener.

// Serve-layer types, re-exported so downstream code never imports
// internal packages.
type (
	// ServiceFrame is one epoch's scheduling decision for one shard.
	ServiceFrame = serve.Frame
	// ServiceStats is a point-in-time summary of one shard's activity.
	ServiceStats = serve.Stats
	// ServiceSubscription is a bounded frame stream from one shard.
	ServiceSubscription = serve.Subscription
	// FrameDropPolicy says what a full subscription buffer does with a
	// new frame.
	FrameDropPolicy = serve.DropPolicy
)

// Drop policies for slow subscribers.
const (
	// DropOldestFrame evicts the oldest buffered frame — subscribers
	// converge to the freshest schedule. The default.
	DropOldestFrame = serve.DropOldest
	// DropNewestFrame discards the incoming frame — subscribers see a
	// contiguous prefix, then gaps.
	DropNewestFrame = serve.DropNewest
)

// ErrServiceClosed is returned by operations on a closed Service.
var ErrServiceClosed = serve.ErrClosed

// DefaultServiceSlotBits is the demand served per matched pair per epoch
// when ServiceConfig.SlotBits is zero: one 1500-byte frame.
const DefaultServiceSlotBits = Size(serve.DefaultSlotBits)

// ServiceConfig configures an online scheduling service.
type ServiceConfig struct {
	// Ports is the per-shard fabric port count.
	Ports int
	// Algorithm names the matching algorithm (built-in or registered via
	// RegisterAlgorithm).
	Algorithm string
	// Seed seeds randomized algorithms and workload sources; shards
	// derive decorrelated sub-seeds from it.
	Seed uint64
	// SlotBits is the demand served per matched (input, output) pair per
	// epoch — the transmission window times the circuit rate. Zero
	// selects DefaultServiceSlotBits.
	SlotBits Size
	// Shards is the number of independent fabric shards behind this
	// service (zero = 1). Each shard is a complete scheduler with its
	// own demand matrix, algorithm instance and subscribers.
	Shards int
	// Workers sizes the worker pool epoch steps fan out over
	// (zero = GOMAXPROCS).
	Workers int
	// Workload, when non-nil, drives every shard from a live traffic
	// generator: each epoch consumes EpochSpan of simulated arrivals —
	// the flow-level processes (FlowArrivals + WebSearch() etc.) are the
	// intended load sources. Each shard draws an independent,
	// reproducible stream. Ports and Seed are filled from the service
	// configuration when left zero; LineRate (and the rest of the
	// workload shape) must be set here.
	Workload *TrafficConfig
	// EpochSpan is the simulated time one epoch consumes from Workload.
	// Required when Workload is set.
	EpochSpan Duration
	// Metrics, when non-nil, is the registry the service's instruments
	// register in: per-shard epoch-latency histograms, throughput
	// counters, backlog gauges and drop counts, all labeled by shard.
	// Recording is allocation-free, so instrumentation does not perturb
	// the epoch hot path. Nil disables instrumentation.
	Metrics *MetricsRegistry
}

// Service is a running online scheduling service. Create with NewService
// (or RestoreService), feed and advance it, then Close. All methods are
// safe for concurrent use.
type Service struct {
	cfg ServiceConfig
	sh  *serve.Sharded
}

// NewService validates cfg and assembles the service. The service starts
// idle: drive epochs explicitly with Step (deterministic) or start the
// wall-clock loop with Run.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("hybridsched: Shards must be non-negative")
	}
	if cfg.SlotBits < 0 {
		return nil, fmt.Errorf("hybridsched: SlotBits must be non-negative")
	}
	var newSource serve.SourceFactory
	if cfg.Workload != nil {
		if cfg.EpochSpan <= 0 {
			return nil, fmt.Errorf("hybridsched: EpochSpan must be positive when Workload is set")
		}
		tc := *cfg.Workload
		if tc.Ports == 0 {
			tc.Ports = cfg.Ports
		}
		if tc.Seed == 0 {
			tc.Seed = cfg.Seed
		}
		if err := effectiveWorkload(tc).Validate(); err != nil {
			return nil, fmt.Errorf("hybridsched: %w", err)
		}
		span := cfg.EpochSpan
		newSource = func(shard int, seed uint64) (serve.Source, error) {
			sc := tc
			sc.Seed = seed
			return serve.NewWorkloadSource(effectiveWorkload(sc), span)
		}
	}
	sh, err := serve.NewSharded(cfg.Shards, cfg.Workers, serve.Config{
		Ports:     cfg.Ports,
		Algorithm: cfg.Algorithm,
		Seed:      cfg.Seed,
		SlotBits:  int64(cfg.SlotBits),
		Metrics:   cfg.Metrics,
	}, newSource)
	if err != nil {
		return nil, fmt.Errorf("hybridsched: %w", err)
	}
	return &Service{cfg: cfg, sh: sh}, nil
}

// effectiveWorkload pins the endless-stream default: a service workload
// with no Until runs forever.
func effectiveWorkload(tc traffic.Config) traffic.Config {
	if tc.Until == 0 {
		tc.Until = units.MaxTime
	}
	return tc
}

// RestoreService builds a service from cfg and loads the checkpoint at r
// (written by Snapshot): pending demand and epoch counters come back
// exactly; algorithms restart from their initial state. The snapshot's
// shard count must match cfg.
func RestoreService(cfg ServiceConfig, r io.Reader) (*Service, error) {
	s, err := NewService(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.sh.Restore(r); err != nil {
		s.Close()
		return nil, fmt.Errorf("hybridsched: %w", err)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *Service) Shards() int { return s.sh.Shards() }

// Offer adds bits of pending demand from src to dst on shard 0 — the
// single-switch streaming ingest path.
func (s *Service) Offer(src, dst int, bits Size) error {
	return s.sh.Offer(0, src, dst, int64(bits))
}

// OfferShard adds demand to one shard of a multi-instance service.
func (s *Service) OfferShard(shard, src, dst int, bits Size) error {
	return s.sh.Offer(shard, src, dst, int64(bits))
}

// OfferRecords ingests a batch of HSTR trace records as demand on shard 0
// — the bridge from captured workloads (ReadTraceFile) to the live
// service. Record times are ignored; sizes accumulate as offered bits.
func (s *Service) OfferRecords(recs []TraceRecord) error {
	return s.sh.Shard(0).OfferRecords(recs)
}

// Step runs one epoch on every shard (fanned out over the worker pool)
// and returns the frames in shard order — identical at any worker count.
// The frames are owned by the caller: their matchings are cloned inside
// each shard's epoch, so no later epoch can rewrite them.
func (s *Service) Step() ([]ServiceFrame, error) {
	return s.sh.Step()
}

// Run steps every shard once per interval tick of wall-clock time until
// ctx is canceled or the service is closed. It returns ctx.Err() on
// cancellation and nil when stopped by Close (which it notices
// immediately, not at the next tick).
func (s *Service) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("hybridsched: Run interval must be positive, have %v", interval)
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.sh.Done():
			return nil
		case <-tick.C:
			if _, err := s.Step(); err != nil {
				if errors.Is(err, ErrServiceClosed) {
					return nil
				}
				return err
			}
		}
	}
}

// Subscribe opens a bounded frame stream from one shard. The service
// never blocks on a slow subscriber: when the buffer is full the policy
// decides which frame drops, and Subscription.Dropped counts them. A
// buffer above 65536 frames is rejected. Close the subscription (or the
// service) to release it.
func (s *Service) Subscribe(shard, buffer int, policy FrameDropPolicy) (*ServiceSubscription, error) {
	if shard < 0 || shard >= s.sh.Shards() {
		return nil, fmt.Errorf("hybridsched: shard %d outside [0,%d)", shard, s.sh.Shards())
	}
	return s.sh.Shard(shard).Subscribe(buffer, policy)
}

// Epoch returns shard 0's completed epoch count.
func (s *Service) Epoch() uint64 { return s.sh.Shard(0).Epoch() }

// Stats returns per-shard activity summaries in shard order.
func (s *Service) Stats() []ServiceStats { return s.sh.Stats() }

// Snapshot checkpoints the whole service (every shard's pending demand
// and epoch counter) to w as a single HSTR trace — the same format, and
// therefore the same tooling, as captured workloads. The cut is
// consistent per shard and canonical: restoring and re-snapshotting
// reproduces the bytes exactly.
func (s *Service) Snapshot(w io.Writer) error { return s.sh.Snapshot(w) }

// Close stops every shard, closes all subscriptions and releases pooled
// state. Idempotent.
func (s *Service) Close() error { return s.sh.Close() }
