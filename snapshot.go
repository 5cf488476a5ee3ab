package sharon

import (
	"fmt"
	"runtime"

	"github.com/sharon-project/sharon/internal/exec"
)

// StateSnapshot is the serializable runtime state of a system: open
// window aggregates, live START records, stage combination snapshots,
// and — for dynamic systems — the installed plan and rate counters. It
// is produced by the systems' Snapshot methods and loaded by Restore;
// internal/persist encodes it into the checkpoint file format.
//
// Snapshot must be called from the goroutine that feeds the system (the
// parallel executors quiesce their workers under an internal barrier).
// When Snapshot returns, every result for windows ending at or before
// the system's watermark has been delivered through OnResult, and the
// snapshot covers exactly the windows after it — so a checkpoint plus a
// replay of the events that followed it reproduces the uninterrupted
// emission stream with no lost and no duplicated windows.
//
// Restore must be called on a freshly constructed system of the same
// shape — same workload, same plan inputs, and (for parallel systems)
// the same Parallelism — before the first event. Mismatches are
// detected and returned as errors rather than corrupting state.
type StateSnapshot = exec.SystemSnapshot

// Snapshot captures the system's runtime state for checkpointing: under
// Dynamic it includes the installed plan, the rate-drift counters, and a
// mid-migration draining engine, so a restored run migrates exactly where
// the original would. The comparison baselines do not checkpoint.
func (s *System) Snapshot() (*StateSnapshot, error) {
	defer runtime.KeepAlive(s) // see System
	switch e := s.executor.(type) {
	case *exec.Parallel:
		return e.Snapshot()
	case interface{ Snapshot() *StateSnapshot }:
		return e.Snapshot(), nil
	}
	return nil, fmt.Errorf("sharon: %s executor does not support snapshots", s.executor.Name())
}

// Restore loads a snapshot produced by an equivalent system's Snapshot.
func (s *System) Restore(snap *StateSnapshot) error {
	defer runtime.KeepAlive(s) // see System
	if snap == nil {
		return fmt.Errorf("sharon: nil snapshot")
	}
	if e, ok := s.executor.(interface{ Restore(*StateSnapshot) error }); ok {
		return e.Restore(snap)
	}
	return fmt.Errorf("sharon: %s executor does not support restore", s.executor.Name())
}
