package sharon

import (
	"fmt"

	"github.com/sharon-project/sharon/internal/exec"
)

// BurstState is the burst detector's debounced classification of the
// stream (adaptive mode).
type BurstState = exec.BurstState

// BurstConfig tunes the adaptive mode's burst detector; zero values
// select the defaults.
type BurstConfig = exec.BurstConfig

// Burst-detector states.
const (
	Valley = exec.Valley
	Burst  = exec.Burst
)

// DynamicOptions configures the dynamic runtime (paper §7.4) selected by
// Options.Dynamic. Rates, OnResult, EmitEmpty and Parallelism come from
// Options.
type DynamicOptions struct {
	// CheckEvery is the interval in ticks between rate-drift checks
	// (default: one window slide).
	CheckEvery int64
	// DriftThreshold is the relative rate change that triggers
	// re-optimization (default 0.5).
	DriftThreshold float64
	// OnMigrate observes plan changes. With Parallelism > 1 each shard
	// migrates independently; invocations are serialized but may arrive
	// from different shards at different stream times.
	OnMigrate func(at int64, old, new Plan)

	// Adaptive switches the runtime from drift-triggered re-optimization
	// to per-burst share-vs-split decisions: a burst detector classifies
	// the arrival rate each check interval, confirmed bursts install the
	// shared plan, and confirmed valleys split back to per-query
	// execution. Hand-offs reuse the migration protocol, so output stays
	// identical to a static execution either way. With Parallelism > 1
	// each shard detects and decides independently.
	Adaptive bool
	// Burst tunes the adaptive detector (zero values select defaults).
	Burst BurstConfig
	// OnDecision observes each confirmed share/split transition after
	// its plan installs (share: len(plan) > 0). Like OnMigrate,
	// invocations are serialized across shards.
	OnDecision func(at int64, state BurstState, plan Plan)
}

// buildDynamic builds the dynamic runtime with an initial plan optimized
// for Options.Rates (use MeasureRates on a warm-up sample): when rates
// drift it re-runs the Sharon optimizer and migrates to the new plan
// without losing or corrupting window results, so output is identical to
// a static execution.
func (s *System) buildDynamic(opts Options, execOpts exec.Options) error {
	d := opts.Dynamic
	cfg := exec.DynamicConfig{
		Options:         execOpts,
		CheckEvery:      d.CheckEvery,
		DriftThreshold:  d.DriftThreshold,
		OptimizerBudget: opts.OptimizerBudget,
		OnMigrate:       d.OnMigrate,
		Adaptive:        d.Adaptive,
		Burst:           d.Burst,
		OnDecision:      d.OnDecision,
	}
	w := s.workload
	if workers := resolveParallelism(opts.Parallelism, w[0].GroupBy, opts.OnResult != nil); workers > 1 {
		p, dyns, err := exec.NewParallelDynamic(w, opts.Rates, workers, cfg)
		if err != nil {
			return fmt.Errorf("sharon: %w", err)
		}
		// Safe: the workers have not been sent any message yet, so no
		// goroutine touches shard state before this read.
		s.executor, s.dyn, s.plan = p, dyns, dyns[0].Plan()
		return nil
	}
	seq, err := exec.NewDynamic(w, opts.Rates, cfg)
	if err != nil {
		return fmt.Errorf("sharon: %w", err)
	}
	s.executor, s.dyn, s.plan = seq, []*exec.Dynamic{seq}, seq.Plan()
	return nil
}

// dynamics returns the dynamic runtime's executors when they may be
// inspected: always sequentially, only after Flush/Close on the parallel
// path (worker goroutines own the shards while the run is live). Nil
// without Options.Dynamic.
func (s *System) dynamics() []*exec.Dynamic {
	if p, ok := s.executor.(*exec.Parallel); ok && !p.Flushed() {
		return nil
	}
	return s.dyn
}

// Migrations reports how many plan changes the dynamic runtime installed,
// summed across shards on the parallel path, where the count is
// available only after Flush (0 before). Always 0 without
// Options.Dynamic.
func (s *System) Migrations() int {
	n := 0
	for _, d := range s.dynamics() {
		n += d.Migrations
	}
	return n
}

// PrunedStarts reports the state reduction's dead-record prune count —
// START records recycled at birth because no open window could still
// observe them. It covers the sequential engine, and the dynamic runtime
// cumulatively across plan migrations (summed across shards on the
// parallel path, 0 there until Flush); 0 for other executors.
func (s *System) PrunedStarts() int64 {
	if en, ok := s.executor.(*exec.Engine); ok {
		return en.PrunedStarts()
	}
	var n int64
	for _, d := range s.dynamics() {
		n += d.PrunedStarts()
	}
	return n
}
