// Package sharon is a from-scratch Go implementation of SHARON — Shared
// Online Event Sequence Aggregation (Poppe et al., ICDE 2018): a complex
// event processing engine that evaluates workloads of event sequence
// aggregation queries online (without constructing sequences) while
// sharing intermediate aggregates among queries according to an optimal
// sharing plan.
//
// The typical flow mirrors the paper's framework (Fig. 5):
//
//	reg := sharon.NewRegistry()
//	q1 := sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 10m SLIDE 1m", reg)
//	q2 := sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(ParkAve, OakSt, MainSt) WHERE [vehicle] WITHIN 10m SLIDE 1m", reg)
//	sys, err := sharon.NewSystem(sharon.Workload{q1, q2}, sharon.Options{Rates: rates})
//	for _, e := range stream {
//	    sys.Process(e)
//	}
//	sys.Flush()
//	for _, r := range sys.Results() { ... }
//
// NewSystem runs the static optimizer — sharable pattern detection
// (modified CCSpan), the benefit model, the Sharon graph, GWMIN-bound
// reduction, and the optimal plan finder — and instantiates the shared
// online executor for the chosen plan. A workload whose queries differ in
// window, grouping or predicates runs as uniform segments (paper §7.2),
// and Options.Dynamic re-plans at runtime as rates drift (§7.4). Baseline
// executors (A-Seq, Flink-style two-step, SPASS) are exposed for
// comparison via Strategy.
package sharon

import (
	"fmt"
	"runtime"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/query"
)

// Re-exported data-model types. Events carry a timestamp in ticks
// (TicksPerSecond per second), an interned type, a grouping key, and one
// numeric attribute.
type (
	// Event is a time-stamped message on the input stream.
	Event = event.Event
	// Type is an interned event type.
	Type = event.Type
	// GroupKey is the grouping-attribute value of an event.
	GroupKey = event.GroupKey
	// Registry interns event type names.
	Registry = event.Registry
	// Stream is a finite, strictly time-ordered event sequence.
	Stream = event.Stream
	// Pattern is an event sequence pattern (E1 ... El).
	Pattern = query.Pattern
	// Query is an event sequence aggregation query.
	Query = query.Query
	// Workload is a set of queries evaluated together.
	Workload = query.Workload
	// Window is a sliding window (WITHIN/SLIDE).
	Window = query.Window
	// Result is one aggregate: (query, window, group) -> state.
	Result = exec.Result
	// Plan is a sharing plan: the set of sharing candidates in effect.
	Plan = core.Plan
	// Candidate is one sharing candidate (p, Qp).
	Candidate = core.Candidate
	// Rates maps event types to rates for the optimizer's benefit model.
	Rates = core.Rates
	// ParallelStats summarizes a parallel run: throughput counters and
	// the per-shard occupancy profile.
	ParallelStats = metrics.ParallelStats
)

// TicksPerSecond is the timestamp resolution of the event model.
const TicksPerSecond = event.TicksPerSecond

// NoType is the invalid zero Type (e.g. a failed Registry.Lookup).
const NoType = event.NoType

// NewRegistry returns an empty event type registry.
func NewRegistry() *Registry { return event.NewRegistry() }

// ParseQuery parses a query in the SASE-style surface language, e.g.
//
//	RETURN COUNT(*) PATTERN SEQ(OakSt, MainSt) WHERE [vehicle] WITHIN 10m SLIDE 1m
func ParseQuery(text string, reg *Registry) (*Query, error) {
	return query.Parse(text, reg)
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(text string, reg *Registry) *Query {
	return query.MustParse(text, reg)
}

// Strategy selects an execution strategy for NewSystem.
type Strategy int

const (
	// StrategySharon (default) runs the Sharon optimizer and the shared
	// online executor.
	StrategySharon Strategy = iota
	// StrategyGreedy runs the greedy (GWMIN) optimizer with the shared
	// online executor.
	StrategyGreedy
	// StrategyNonShared evaluates every query independently online
	// (the A-Seq baseline).
	StrategyNonShared
	// StrategyTwoStep constructs all sequences before aggregating them
	// (the Flink-style baseline). For comparison only.
	StrategyTwoStep
	// StrategySPASS shares sequence construction but not aggregation.
	// For comparison only.
	StrategySPASS
	// StrategySASE constructs sequences incrementally with an NFA per
	// query (SASE/Cayuga style). For comparison only.
	StrategySASE
)

// Options configures NewSystem.
type Options struct {
	// Strategy selects optimizer + executor (default StrategySharon).
	Strategy Strategy
	// Rates supplies per-type event rates for the benefit model. When
	// nil, sharing decisions assume uniform rates across the workload's
	// types. Use MeasureRates on a stream sample for realistic plans.
	Rates Rates
	// Plan, when non-nil, bypasses the optimizer and executes this plan.
	// It applies to a uniform workload only.
	Plan Plan
	// OnResult receives every aggregate as it is emitted, in the
	// deterministic (window end, query ID, group) order, as each window
	// closes — the push-based alternative to polling Results after
	// Flush. A system with an OnResult sink does not retain results:
	// Results returns nil (see System.Results for the exact contract).
	// Sequentially the callback runs inside Process/AdvanceWatermark/
	// Flush; with Parallelism > 1 it runs on the merge goroutine.
	OnResult func(Result)
	// EmitEmpty also emits zero results for windows without matches.
	EmitEmpty bool
	// OptimizerBudget bounds the plan search; on expiry the best plan
	// found so far (at least GWMIN's) is used. Default 10s; under
	// Dynamic it bounds each re-optimization (default 2s there).
	OptimizerBudget time.Duration
	// Parallelism selects the number of shard workers for the online
	// executors (StrategySharon, StrategyGreedy, StrategyNonShared).
	// Events are hash-partitioned by group key across worker goroutines,
	// each running an independent copy of the engine, and window results
	// are merged back in deterministic (window end, query ID, group)
	// order — identical to a sequential run. 0 = auto: GOMAXPROCS
	// workers for grouped workloads without an OnResult callback, the
	// sequential path otherwise (ungrouped workloads have a single group
	// and cannot shard by key, and auto never changes where an existing
	// OnResult callback runs); 1 = always sequential. A workload split
	// into segments shards by segment instead, regardless of grouping.
	// Under Dynamic each shard runs its own rate monitor and migrates
	// independently (results are plan-invariant). The comparison
	// baselines (TwoStep, SPASS, SASE) always run sequentially. With
	// Parallelism > 1, OnResult is invoked from a merge goroutine rather
	// than from inside Process — the callback must not share
	// unsynchronized state with the feeding loop.
	Parallelism int
	// Dynamic, when non-nil, runs the workload on the dynamic runtime
	// (paper §7.4): it monitors event rates and migrates between sharing
	// plans at runtime. It requires a uniform workload, StrategySharon
	// and no fixed Plan; the initial plan is optimized for Rates (the
	// adaptive mode starts split instead).
	Dynamic *DynamicOptions
}

// resolveParallelism maps Options.Parallelism to a worker count. An
// ungrouped workload aggregates all events under one group and cannot
// shard by key, so it always runs the plain sequential path, even under
// an explicit Parallelism. Auto (0) additionally requires no OnResult
// callback: auto must not silently move an existing callback onto
// another goroutine.
func resolveParallelism(p int, grouped, callback bool) int {
	switch {
	case !grouped:
		return 1
	case p > 1:
		return p
	case p == 0 && !callback:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// System is a compiled workload running on one executor, chosen by
// NewSystem from its inputs: the shared online engine under an
// optimizer-chosen plan for a uniform workload, one engine per uniform
// segment otherwise (paper §7.2), or the dynamic runtime (§7.4) under
// Options.Dynamic. Each may be sharded across worker goroutines.
//
// A parallel run (Parallelism != 1) must end with Flush or Close.
// Dropping it otherwise is a backstop only: the workers are reclaimed
// when the System is garbage collected. The GC may see the System as
// unreachable while its last method call is still executing, so every
// method that drives the executor pins it with runtime.KeepAlive.
type System struct {
	workload Workload
	plan     Plan // the static plan; the initial plan under Dynamic
	score    float64
	executor exec.Executor
	segments int
	// dyn holds the dynamic runtime's executors: the sequential one, or
	// one per shard (worker-owned until the parallel run is flushed).
	dyn     []*exec.Dynamic
	collect bool
}

// MeasureRates computes per-type rates from a stream sample, normalized
// per group when the workload groups by key (the executor partitions the
// stream, so the cost model must see per-group rates).
func MeasureRates(sample Stream, w Workload) Rates {
	rates := Rates(sample.Rates())
	if len(w) == 0 || !w[0].GroupBy {
		return rates
	}
	keys := make(map[GroupKey]bool)
	for _, e := range sample {
		keys[e.Key] = true
	}
	if n := float64(len(keys)); n > 1 {
		for t := range rates {
			rates[t] /= n
		}
	}
	return rates
}

// NewSystem optimizes the workload and builds its executor. A workload
// whose queries differ in window, grouping or predicates is split into
// uniform segments, each optimized and executed by its own engine: within
// a segment Sharon shares as usual, across segments nothing is shared.
// Queries keep their global IDs in results.
func NewSystem(w Workload, opts Options) (*System, error) {
	if len(w) == 0 {
		return nil, fmt.Errorf("sharon: empty workload")
	}
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("sharon: %w", err)
	}
	uniform := w.Uniform()
	switch {
	case opts.Dynamic != nil && !uniform:
		return nil, fmt.Errorf("sharon: Options.Dynamic needs a uniform workload (same window, grouping and predicates)")
	case opts.Dynamic != nil && opts.Plan != nil:
		return nil, fmt.Errorf("sharon: Options.Dynamic chooses plans at runtime and cannot run a fixed Options.Plan")
	case opts.Dynamic != nil && opts.Strategy != StrategySharon:
		return nil, fmt.Errorf("sharon: Options.Dynamic runs the Sharon optimizer only, not Strategy %d", opts.Strategy)
	case !uniform && opts.Plan != nil:
		return nil, fmt.Errorf("sharon: Options.Plan applies to a uniform workload; this one splits into segments")
	case !uniform && opts.Strategy > StrategyNonShared:
		return nil, fmt.Errorf("sharon: a workload split into segments runs online strategies only")
	}
	sys := &System{workload: w, segments: 1, collect: opts.OnResult == nil}
	execOpts := exec.Options{OnResult: opts.OnResult, Collect: sys.collect, EmitEmpty: opts.EmitEmpty}
	var err error
	switch {
	case opts.Dynamic != nil:
		err = sys.buildDynamic(opts, execOpts)
	case !uniform:
		err = sys.buildSegments(opts, execOpts)
	default:
		err = sys.buildStatic(opts, execOpts)
	}
	if err != nil {
		return nil, err
	}
	if p, ok := sys.executor.(*exec.Parallel); ok {
		runtime.AddCleanup(sys, func(p *exec.Parallel) { p.Stop() }, p)
	}
	return sys, nil
}

// optimizerOptions maps the options onto one optimizer run.
func (opts Options) optimizerOptions() core.OptimizerOptions {
	strat := core.StrategyNone
	switch opts.Strategy {
	case StrategySharon:
		strat = core.StrategySharon
	case StrategyGreedy:
		strat = core.StrategyGreedy
	}
	budget := opts.OptimizerBudget
	if budget == 0 {
		budget = 10 * time.Second
	}
	return core.OptimizerOptions{Strategy: strat, Expand: strat == core.StrategySharon, Budget: budget}
}

// rates returns Options.Rates, or uniform rates over w's types when nil.
func (opts Options) rates(w Workload) Rates {
	if opts.Rates != nil {
		return opts.Rates
	}
	rates := Rates{}
	for t := range w.Types() {
		rates[t] = 1
	}
	return rates
}

// buildStatic builds a uniform workload's executor under the supplied or
// optimizer-chosen plan.
func (s *System) buildStatic(opts Options, execOpts exec.Options) error {
	w := s.workload
	s.plan = opts.Plan
	if s.plan == nil {
		res, err := core.Optimize(w, opts.rates(w), opts.optimizerOptions())
		if err != nil {
			return fmt.Errorf("sharon: optimize: %w", err)
		}
		s.plan, s.score = res.Plan, res.Score
	}
	workers := resolveParallelism(opts.Parallelism, w[0].GroupBy, opts.OnResult != nil)
	plan := s.plan
	var err error
	switch opts.Strategy {
	case StrategyTwoStep:
		s.executor, err = exec.NewTwoStep(w, execOpts)
	case StrategySASE:
		s.executor, err = exec.NewSASE(w, execOpts)
	case StrategySPASS:
		s.executor, err = exec.NewSPASS(w, plan, execOpts)
	case StrategyNonShared:
		plan = nil
		fallthrough
	default:
		if workers > 1 {
			s.executor, err = exec.NewParallelEngine(w, plan, workers, execOpts)
		} else {
			s.executor, err = exec.NewEngine(w, plan, execOpts)
		}
	}
	if err != nil {
		return fmt.Errorf("sharon: %w", err)
	}
	return nil
}

// buildSegments optimizes each uniform segment on its own and builds one
// engine per segment, sharded by segment when parallel.
func (s *System) buildSegments(opts Options, execOpts exec.Options) error {
	specs, err := exec.PlanSegments(s.workload, opts.rates(s.workload), opts.optimizerOptions())
	if err != nil {
		return fmt.Errorf("sharon: %w", err)
	}
	s.segments = len(specs)
	// Segments shard regardless of grouping, hence grouped=true; more
	// workers than segments would idle.
	workers := min(resolveParallelism(opts.Parallelism, true, opts.OnResult != nil), len(specs))
	if workers > 1 {
		s.executor, err = exec.NewParallelPartitioned(specs, workers, execOpts)
	} else {
		s.executor, err = exec.NewPartitionedFromSpecs(specs, execOpts)
	}
	if err != nil {
		return fmt.Errorf("sharon: %w", err)
	}
	return nil
}

// Plan returns the sharing plan in effect; nil for a workload split into
// segments. Under Dynamic it is the installed plan: on the parallel path
// shards migrate independently, so Plan reports the initial plan while
// the run is live and shard 0's final plan after Flush.
func (s *System) Plan() Plan {
	if ds := s.dynamics(); ds != nil {
		return ds[0].Plan()
	}
	return s.plan
}

// PlanScore returns the optimizer's estimated benefit of the plan
// (Definition 8); zero when a plan was supplied directly, for segments,
// and under Dynamic.
func (s *System) PlanScore() float64 { return s.score }

// FormatPlan renders the plan with type names from reg.
func (s *System) FormatPlan(reg *Registry) string {
	return s.Plan().Format(reg, s.workload)
}

// Segments reports how many uniform segments the workload split into
// (1 for a uniform workload).
func (s *System) Segments() int { return s.segments }

// Process feeds the next event. Events must arrive in strictly increasing
// timestamp order.
func (s *System) Process(e Event) error {
	defer runtime.KeepAlive(s) // see System
	return s.executor.Process(e)
}

// FeedBatch feeds a batch of strictly time-ordered events. On the
// parallel path this hoists the per-call liveness checks out of the
// event loop; the event batching itself happens inside the executor on
// both entry points, so Process-in-a-loop delivers the same batches.
func (s *System) FeedBatch(events []Event) error {
	defer runtime.KeepAlive(s) // see System
	if b, ok := s.executor.(interface{ FeedBatch([]Event) error }); ok {
		return b.FeedBatch(events)
	}
	for _, e := range events {
		if err := s.executor.Process(e); err != nil {
			return err
		}
	}
	return nil
}

// ProcessAll replays a whole stream and flushes. On a feed error the
// run is stopped without emitting partial windows.
func (s *System) ProcessAll(stream Stream) error {
	defer runtime.KeepAlive(s) // see System
	if err := s.FeedBatch(stream); err != nil {
		s.Close()
		return err
	}
	return s.Flush()
}

// Flush closes every window containing events seen so far. Call at end of
// stream.
func (s *System) Flush() error {
	defer runtime.KeepAlive(s) // see System
	return s.executor.Flush()
}

// AdvanceWatermark declares that no event at or before time t will
// arrive anymore: every window ending at or before t closes and its
// results are emitted (to the OnResult sink, or into the collected set)
// without consuming an event and without ending the run. It is the
// emission driver for unbounded streams — sources that pause or that
// carry explicit watermark punctuation use it to bound result latency;
// Flush remains the terminal close of a finite stream. Subsequent events
// at or before t are rejected as out-of-order. Calls before the first
// event or behind the current watermark are no-ops. Supported by the
// online executors (sequential and parallel, every segment, and the
// dynamic runtime, whose rate accounting sees observed events only); the
// comparison baselines (TwoStep, SPASS, SASE) ignore it.
func (s *System) AdvanceWatermark(t int64) {
	defer runtime.KeepAlive(s) // see System
	if w, ok := s.executor.(interface{ AdvanceWatermark(int64) }); ok {
		w.AdvanceWatermark(t)
	}
}

// Close releases the executor without emitting the windows still open.
// A parallel run (Parallelism != 1) must end with Flush — which
// delivers all windows — or Close: see System. On the sequential path
// Close is a no-op. Idempotent, and safe after Flush.
func (s *System) Close() {
	defer runtime.KeepAlive(s) // see System
	if p, ok := s.executor.(*exec.Parallel); ok {
		p.Stop()
	}
}

// Results returns the collected results, sorted by query, window, group.
// Collection and the OnResult sink are mutually exclusive: when
// Options.OnResult is set the system does not retain results and Results
// always returns nil — the sink is the single consumer, and there is no
// partially delivered snapshot to race with the callback. On the
// parallel path results are available only after Flush (nil before); the
// sequential path also exposes the results collected so far mid-run.
func (s *System) Results() []Result {
	if c, ok := s.executor.(interface{ Results() []Result }); ok && s.collect {
		return c.Results()
	}
	return nil
}

// ResultCount reports the number of aggregates emitted so far.
func (s *System) ResultCount() int64 { return s.executor.ResultCount() }

// PeakMemoryStates reports the executor's peak number of live aggregate
// states (the paper's memory metric unit), summed over segments. On the
// parallel path the shards' peaks are summed at Flush time (0 before).
func (s *System) PeakMemoryStates() int64 { return s.executor.PeakLiveStates() }

// Value extracts a result's final numeric answer for its query.
func Value(r Result, q *Query) float64 { return r.Value(q) }

// FindCandidates exposes the modified CCSpan sharable-pattern detection
// (Appendix A): every contiguous sub-pattern of length > 1 appearing in
// more than one query.
func FindCandidates(w Workload) []Candidate { return core.FindCandidates(w) }

// Optimize runs the Sharon optimizer alone and returns the chosen plan and
// its score; useful for inspecting sharing decisions without executing.
func Optimize(w Workload, rates Rates) (Plan, float64, error) {
	res, err := core.Optimize(w, rates, Options{}.optimizerOptions())
	if err != nil {
		return nil, 0, err
	}
	return res.Plan, res.Score, nil
}

// Explain renders the executor's per-query decomposition (shared vs
// private segments) when the system runs the static online engine
// (sequential or parallel) on a uniform workload; otherwise it returns
// an empty string.
func (s *System) Explain(reg *Registry) string {
	if en, ok := s.executor.(interface{ Explain(*Registry) string }); ok {
		return en.Explain(reg)
	}
	return ""
}

// ParallelStats reports the parallel executor's throughput and
// shard-occupancy counters; the zero value when the system runs
// sequentially. Elapsed/throughput fields are populated by Flush.
func (s *System) ParallelStats() ParallelStats {
	if p, ok := s.executor.(*exec.Parallel); ok {
		return p.Stats()
	}
	return ParallelStats{}
}
