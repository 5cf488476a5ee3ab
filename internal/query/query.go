// Package query defines Sharon's query model (paper §2.1): event sequence
// patterns, aggregation specifications, predicates, grouping, and sliding
// windows, together with a SASE-style textual query language.
package query

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/sharon-project/sharon/internal/event"
)

// Pattern is an event sequence pattern (E1 ... El), paper Definition 1.
// A match is a sequence of events of these types with strictly increasing
// timestamps.
type Pattern []event.Type

// Length returns the number of event types in the pattern.
func (p Pattern) Length() int { return len(p) }

// Equal reports whether p and q are the same pattern.
func (p Pattern) Equal(q Pattern) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Pattern) Clone() Pattern {
	out := make(Pattern, len(p))
	copy(out, p)
	return out
}

// Key returns a compact map key uniquely identifying the pattern.
func (p Pattern) Key() string {
	var b strings.Builder
	for i, t := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", t)
	}
	return b.String()
}

// Format renders the pattern with type names from reg.
func (p Pattern) Format(reg *event.Registry) string {
	parts := make([]string, len(p))
	for i, t := range p {
		parts[i] = reg.Name(t)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// IndexOf returns the position of the first occurrence of sub in p, or -1.
func (p Pattern) IndexOf(sub Pattern) int {
	if len(sub) == 0 || len(sub) > len(p) {
		return -1
	}
outer:
	for i := 0; i+len(sub) <= len(p); i++ {
		for j := range sub {
			if p[i+j] != sub[j] {
				continue outer
			}
		}
		return i
	}
	return -1
}

// Occurrences returns all start positions of sub within p. Under the
// paper's core assumption (3) a type occurs at most once per pattern, so
// there is at most one occurrence; the multi-occurrence extension (§7.3)
// uses the full list.
func (p Pattern) Occurrences(sub Pattern) []int {
	var out []int
	if len(sub) == 0 || len(sub) > len(p) {
		return out
	}
outer:
	for i := 0; i+len(sub) <= len(p); i++ {
		for j := range sub {
			if p[i+j] != sub[j] {
				continue outer
			}
		}
		out = append(out, i)
	}
	return out
}

// Contains reports whether sub occurs contiguously within p.
func (p Pattern) Contains(sub Pattern) bool { return p.IndexOf(sub) >= 0 }

// Sub returns the sub-pattern p[i:j].
func (p Pattern) Sub(i, j int) Pattern { return p[i:j:j] }

// HasDuplicateTypes reports whether some event type occurs more than once
// in p (relevant for the §7.3 extension).
func (p Pattern) HasDuplicateTypes() bool {
	seen := make(map[event.Type]bool, len(p))
	for _, t := range p {
		if seen[t] {
			return true
		}
		seen[t] = true
	}
	return false
}

// AggKind enumerates the aggregation functions of Definition 2. All are
// distributive or algebraic, hence incrementally computable.
type AggKind int

const (
	// CountStar is COUNT(*): the number of matched sequences.
	CountStar AggKind = iota
	// CountE is COUNT(E): the number of events of type Target across all
	// matched sequences.
	CountE
	// Sum is SUM(E.attr) over events of type Target in all sequences.
	Sum
	// Min is MIN(E.attr).
	Min
	// Max is MAX(E.attr).
	Max
	// Avg is AVG(E.attr) = SUM/COUNT(E); algebraic.
	Avg
)

// String returns the SASE-style name of the aggregation function.
func (k AggKind) String() string {
	switch k {
	case CountStar:
		return "COUNT(*)"
	case CountE:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// AggSpec is the RETURN clause: an aggregation function and, for functions
// other than COUNT(*), the event type whose attribute is aggregated.
type AggSpec struct {
	Kind   AggKind
	Target event.Type // used by CountE, Sum, Min, Max, Avg
}

// Format renders the spec with type names from reg.
func (a AggSpec) Format(reg *event.Registry) string {
	switch a.Kind {
	case CountStar:
		return "COUNT(*)"
	case CountE:
		return fmt.Sprintf("COUNT(%s)", reg.Name(a.Target))
	default:
		return fmt.Sprintf("%s(%s.val)", a.Kind, reg.Name(a.Target))
	}
}

// CmpOp is a comparison operator in a WHERE predicate.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

// String returns the surface syntax of the operator.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	}
	return "?"
}

// Predicate is a per-event filter of the form Type.val <op> Value.
// Type == event.NoType applies the filter to every event.
type Predicate struct {
	Type  event.Type
	Op    CmpOp
	Value float64
}

// Eval reports whether ev satisfies the predicate. Events of other types
// pass vacuously.
//
//sharon:hotpath
func (p Predicate) Eval(ev event.Event) bool {
	if p.Type != event.NoType && ev.Type != p.Type {
		return true
	}
	switch p.Op {
	case Lt:
		return ev.Val < p.Value
	case Le:
		return ev.Val <= p.Value
	case Gt:
		return ev.Val > p.Value
	case Ge:
		return ev.Val >= p.Value
	case Eq:
		return ev.Val == p.Value
	case Ne:
		return ev.Val != p.Value
	}
	return false
}

// Query is an event sequence aggregation query (paper Definition 2).
type Query struct {
	// ID is the query's position in the workload; the Sharon graph relies
	// on IDs being dense and unique (paper §4, data structures).
	ID int
	// Name is an optional human-readable label ("q1").
	Name string
	// Pattern is the PATTERN clause.
	Pattern Pattern
	// Agg is the RETURN clause.
	Agg AggSpec
	// Window is the WITHIN/SLIDE clause.
	Window Window
	// GroupBy partitions the stream by event.Event.Key when true
	// (the paper's [vehicle]/[customer] equivalence predicate).
	GroupBy bool
	// Where holds optional per-event predicates.
	Where []Predicate
}

// Validate reports the first structural problem with the query.
func (q *Query) Validate() error {
	if len(q.Pattern) == 0 {
		return fmt.Errorf("query %s: empty pattern", q.Label())
	}
	for i, t := range q.Pattern {
		if t == event.NoType {
			return fmt.Errorf("query %s: pattern position %d has no type", q.Label(), i)
		}
	}
	if err := q.Window.Validate(); err != nil {
		return fmt.Errorf("query %s: %w", q.Label(), err)
	}
	if q.Agg.Kind != CountStar {
		if q.Agg.Target == event.NoType {
			return fmt.Errorf("query %s: %v requires a target event type", q.Label(), q.Agg.Kind)
		}
		found := false
		for _, t := range q.Pattern {
			if t == q.Agg.Target {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("query %s: aggregation target not in pattern", q.Label())
		}
	}
	return nil
}

// Label returns Name if set, else "q<ID>".
func (q *Query) Label() string {
	if q.Name != "" {
		return q.Name
	}
	return fmt.Sprintf("q%d", q.ID)
}

// Accepts reports whether the query's WHERE predicates admit ev.
func (q *Query) Accepts(ev event.Event) bool {
	for _, p := range q.Where {
		if !p.Eval(ev) {
			return false
		}
	}
	return true
}

// Format renders the query in the textual language understood by Parse.
func (q *Query) Format(reg *event.Registry) string {
	var b strings.Builder
	fmt.Fprintf(&b, "RETURN %s PATTERN SEQ%s", q.Agg.Format(reg), q.Pattern.Format(reg))
	var preds []string
	if q.GroupBy {
		preds = append(preds, "[key]")
	}
	for _, p := range q.Where {
		name := "*"
		if p.Type != event.NoType {
			name = reg.Name(p.Type)
		}
		preds = append(preds, fmt.Sprintf("%s.val %s %g", name, p.Op, p.Value))
	}
	if len(preds) > 0 {
		fmt.Fprintf(&b, " WHERE %s", strings.Join(preds, " AND "))
	}
	fmt.Fprintf(&b, " WITHIN %s SLIDE %s", formatDur(q.Window.Length), formatDur(q.Window.Slide))
	return b.String()
}

func formatDur(ticks int64) string {
	switch {
	case ticks%(60*event.TicksPerSecond) == 0:
		return fmt.Sprintf("%dm", ticks/(60*event.TicksPerSecond))
	case ticks%event.TicksPerSecond == 0:
		return fmt.Sprintf("%ds", ticks/event.TicksPerSecond)
	default:
		return fmt.Sprintf("%dms", ticks*1000/event.TicksPerSecond)
	}
}

// Workload is an ordered set of queries evaluated against one stream.
type Workload []*Query

// Validate checks every query and the uniqueness of IDs.
func (w Workload) Validate() error {
	seen := make(map[int]bool, len(w))
	for _, q := range w {
		if err := q.Validate(); err != nil {
			return err
		}
		if seen[q.ID] {
			return fmt.Errorf("duplicate query id %d", q.ID)
		}
		seen[q.ID] = true
	}
	return nil
}

// SameSegment reports whether two queries can be evaluated by one shared
// engine: the same window, the same grouping, and the same predicate
// conjunction, listed in any order (the paper's §2.1 assumptions). The
// §7.2 segments of a workload are the classes of this relation.
func SameSegment(a, b *Query) bool {
	if a.Window != b.Window || a.GroupBy != b.GroupBy || len(a.Where) != len(b.Where) {
		return false
	}
	return slices.Equal(sortedPredicates(a.Where), sortedPredicates(b.Where))
}

func sortedPredicates(ps []Predicate) []Predicate {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(x, y Predicate) int {
		return cmp.Or(cmp.Compare(x.Type, y.Type), cmp.Compare(x.Op, y.Op), cmp.Compare(x.Value, y.Value))
	})
	return out
}

// Uniform reports whether every query is in the first query's segment
// (see SameSegment).
func (w Workload) Uniform() bool {
	for i := 1; i < len(w); i++ {
		if !SameSegment(w[0], w[i]) {
			return false
		}
	}
	return true
}

// Renumber assigns dense IDs 0..n-1 in workload order and default names.
func (w Workload) Renumber() {
	for i, q := range w {
		q.ID = i
		if q.Name == "" {
			q.Name = fmt.Sprintf("q%d", i+1)
		}
	}
}

// Types returns the set of event types referenced by any pattern.
func (w Workload) Types() map[event.Type]bool {
	out := make(map[event.Type]bool)
	for _, q := range w {
		for _, t := range q.Pattern {
			out[t] = true
		}
	}
	return out
}
