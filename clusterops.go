package sharon

import (
	"fmt"
	"runtime"

	"github.com/sharon-project/sharon/internal/exec"
)

// Cluster rebalancing operations: the public surface the sharond
// cluster tier moves group state between workers with. All per-group
// runtime state is independent, so a subset of groups can be sliced out
// of one system's snapshot and grafted into another system that is
// quiesced at the same watermark — the state-transfer primitive behind
// consistent-hash range hand-offs (worker joins, graceful leaves, and
// dead-worker recovery from checkpoint + WAL tail).
//
// Only a uniform workload on the static online engine supports the graft
// operations: segments interleave per-segment windows and the dynamic
// runtime carries migration state a group slice cannot represent.
// Quiesce is supported by every configuration.

// SliceGroups cuts the groups selected by keep out of a snapshot into a
// new engine-kind snapshot (the "group slice"). The slice preserves the
// source's stream position; parallel snapshots are flattened across
// their shards, so a slice taken under one worker count can be absorbed
// by a system running another.
func SliceGroups(snap *StateSnapshot, keep func(GroupKey) bool) (*StateSnapshot, error) {
	es, err := exec.SliceGroups(snap, keep)
	if err != nil {
		return nil, err
	}
	return &StateSnapshot{Kind: exec.KindEngine, Engine: es}, nil
}

// AbsorbGroups grafts a group slice (from SliceGroups) into the running
// system. A system that has processed events must be quiesced at
// exactly the slice's stream position (same watermark, no events in
// flight); a fresh system adopts the slice's position. Group keys must
// be disjoint from the system's own.
func (s *System) AbsorbGroups(slice *StateSnapshot) error {
	defer runtime.KeepAlive(s) // see System
	if slice.Kind != exec.KindEngine || slice.Engine == nil {
		return fmt.Errorf("sharon: AbsorbGroups wants an engine-kind group slice, got %q", slice.Kind)
	}
	ab, ok := s.executor.(interface {
		AbsorbSlice(*exec.EngineSnapshot) error
	})
	if ok && s.dyn == nil && s.segments == 1 {
		return ab.AbsorbSlice(slice.Engine)
	}
	return fmt.Errorf("sharon: %s executor cannot absorb group slices", s.executor.Name())
}

// RemoveGroups deletes every group whose key satisfies drop from the
// running system and reports how many were removed. The caller must
// stop routing those keys' events to this system first: a removed key's
// next event would rebuild the group from empty state.
func (s *System) RemoveGroups(drop func(GroupKey) bool) (int, error) {
	defer runtime.KeepAlive(s) // see System
	switch ex := s.executor.(type) {
	case *exec.Engine:
		return ex.RemoveGroups(drop), nil
	case *exec.Parallel:
		if s.dyn == nil && s.segments == 1 {
			return ex.RemoveGroups(drop)
		}
	}
	return 0, fmt.Errorf("sharon: %s executor cannot remove groups", s.executor.Name())
}

// Quiesce blocks until every result for windows ending at or before the
// current watermark has been delivered through OnResult. Sequential
// executors emit synchronously, so only the parallel path has anything
// to wait for.
func (s *System) Quiesce() error {
	defer runtime.KeepAlive(s) // see System
	if p, ok := s.executor.(*exec.Parallel); ok {
		return p.Quiesce()
	}
	return nil
}

// GroupCount reports the number of live per-group runtimes, summed over
// segments.
func (s *System) GroupCount() int64 {
	if gc, ok := s.executor.(interface{ GroupCount() int64 }); ok {
		return gc.GroupCount()
	}
	return 0
}
