// Package exec implements Sharon's runtime executors (paper §3 and §8.2):
//
//   - Engine: the online executor. With an empty sharing plan it is the
//     A-Seq baseline (non-shared method, §3.2); with a plan from the
//     optimizer it is the Sharon executor (shared method, §3.3).
//   - TwoStep: the Flink-style non-shared two-step baseline that constructs
//     every event sequence before aggregating it.
//   - SPASS: the shared two-step baseline that shares event sequence
//     construction but not aggregation.
//   - EnumerateWindow: a brute-force oracle used by the test suite.
//
// All executors consume one strictly time-ordered stream and emit one
// aggregate per (query, window, group).
package exec

import (
	"cmp"
	"fmt"
	"sort"

	"github.com/sharon-project/sharon/internal/agg"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/query"
)

// Result is one aggregation result: the aggregate of all sequences matched
// by query Query in window Win for group Group.
type Result struct {
	Query int
	Win   int64
	Group event.GroupKey
	State agg.State
}

// Value extracts the query's final answer from the result state.
func (r Result) Value(q *query.Query) float64 {
	return r.State.Value(valueKind(q.Agg.Kind))
}

func valueKind(k query.AggKind) agg.AggValueKind {
	switch k {
	case query.CountStar:
		return agg.ValueCountStar
	case query.CountE:
		return agg.ValueCountE
	case query.Sum:
		return agg.ValueSum
	case query.Min:
		return agg.ValueMin
	case query.Max:
		return agg.ValueMax
	case query.Avg:
		return agg.ValueAvg
	}
	return agg.ValueCountStar
}

// Executor is the common contract of all four evaluation strategies.
type Executor interface {
	// Name identifies the strategy ("Sharon", "A-Seq", "TwoStep", "SPASS").
	Name() string
	// Process feeds the next event; events must be strictly time-ordered.
	Process(e event.Event) error
	// Flush closes all remaining windows at end of stream.
	Flush() error
	// PeakLiveStates reports the maximum number of aggregate/sequence
	// states held at any sampled instant (the paper's peak-memory unit).
	PeakLiveStates() int64
	// ResultCount reports how many (query, window, group) results were
	// emitted so far.
	ResultCount() int64
}

// Options configures result delivery for an executor.
type Options struct {
	// OnResult receives every result as it is emitted. If nil and Collect
	// is true, results are retained and available via Results().
	OnResult func(Result)
	// Collect retains emitted results in memory.
	Collect bool
	// EmitEmpty also emits zero-valued results for windows in which a
	// query matched nothing.
	EmitEmpty bool
	// DisableStateReduction turns off the SHARP-style shared-state
	// reduction (dead-suffix pruning of START records and merging of
	// equivalent aggregators/stages across queries). Reduction is
	// output-invariant, so this knob exists for the reduction oracle
	// tests and for A/B measurements, not for correctness.
	DisableStateReduction bool
}

// resultSink implements shared result bookkeeping for executors.
type resultSink struct {
	opts    Options
	results []Result
	count   int64
}

// emit delivers one result to the configured sink.
//
//sharon:hotpath
//sharon:deterministic
func (rs *resultSink) emit(r Result) {
	rs.count++
	if rs.opts.OnResult != nil {
		rs.opts.OnResult(r) //sharon:allow hotpathalloc (subscriber callback: the benchmark sink is a no-op; server sinks own their costs)
	}
	if rs.opts.Collect {
		rs.results = append(rs.results, r) //sharon:allow hotpathalloc (Collect mode is off on the benchmarked path; tests that set it accept the appends)
	}
}

// lessResult is the canonical (query, window, group) result order used
// by every executor's Results() and by the parallel merge stage — a
// single definition keeps the parallel-equals-sequential byte-for-byte
// guarantee intact.
//
//sharon:hotpath
//sharon:deterministic
func lessResult(a, b Result) bool {
	return cmpResult(a, b) < 0
}

// cmpResult is lessResult as a three-way comparison for slices.SortFunc
// (the sequential executors' within-window emission sort).
//
//sharon:hotpath
//sharon:deterministic
func cmpResult(a, b Result) int {
	switch {
	case a.Query != b.Query:
		return cmp.Compare(a.Query, b.Query)
	case a.Win != b.Win:
		return cmp.Compare(a.Win, b.Win)
	default:
		return cmp.Compare(a.Group, b.Group)
	}
}

// Results returns collected results (Options.Collect must be set), sorted
// by query, window, group for deterministic comparison.
func (rs *resultSink) Results() []Result {
	out := make([]Result, len(rs.results))
	copy(out, rs.results)
	sort.Slice(out, func(i, j int) bool { return lessResult(out[i], out[j]) })
	return out
}

func (rs *resultSink) ResultCount() int64 { return rs.count }

// validateUniform checks the paper's core assumptions (§2.1): every query
// in the workload has the same window, the same grouping mode, and the
// same predicates, in any order (query.SameSegment). The §7.2 extension
// (partitioning by segment) is out of scope for the executors, which
// evaluate one uniform segment.
func validateUniform(w query.Workload) error {
	if len(w) == 0 {
		return fmt.Errorf("exec: empty workload")
	}
	if err := w.Validate(); err != nil {
		return fmt.Errorf("exec: %w", err)
	}
	first := w[0]
	for _, q := range w[1:] {
		if q.Window != first.Window {
			return fmt.Errorf("exec: query %s window %+v differs from %s window %+v (per-window sharing requires uniform windows, paper §2.1 assumption 2)",
				q.Label(), q.Window, first.Label(), first.Window)
		}
		if q.GroupBy != first.GroupBy {
			return fmt.Errorf("exec: query %s grouping differs from %s", q.Label(), first.Label())
		}
		if !query.SameSegment(q, first) {
			return fmt.Errorf("exec: query %s predicates differ from %s", q.Label(), first.Label())
		}
	}
	return nil
}

// accepts applies the workload's (uniform) predicates.
//
//sharon:hotpath
func accepts(preds []query.Predicate, e event.Event) bool {
	for _, p := range preds {
		if !p.Eval(e) {
			return false
		}
	}
	return true
}
