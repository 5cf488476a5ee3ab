package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/sharon-project/sharon/internal/exec"
)

// rkey identifies one result: query, window and group. The window is
// carried as its index; the received end tick is checked against it.
type rkey struct {
	query int32
	win   int64
	group int64
}

// oracle is the expected output of one workload, computed in process by
// the split engine (no sharing plan), so it does not depend on the plan
// the server's optimizer picks.
type oracle struct {
	index  map[rkey]int32 // result -> position in the slices below
	count  []float64
	value  []float64 // NaN = the wire carries null
	wins   []int64   // windows with at least one result, ascending
	perWin map[int64]int32
}

// computeOracle runs the split engine over the workload's stream and
// closes it with the same final watermark the phases send.
func computeOracle(wl *workload) (*oracle, error) {
	o := &oracle{index: make(map[rkey]int32), perWin: make(map[int64]int32)}
	queries := wl.w
	en, err := exec.NewEngine(wl.w, nil, exec.Options{OnResult: func(r exec.Result) {
		k := rkey{query: int32(r.Query), win: r.Win, group: int64(r.Group)}
		v := r.Value(queries[r.Query])
		if math.IsInf(v, 0) {
			v = math.NaN()
		}
		o.index[k] = int32(len(o.count))
		o.count = append(o.count, r.State.Count)
		o.value = append(o.value, v)
		if o.perWin[r.Win] == 0 {
			o.wins = append(o.wins, r.Win)
		}
		o.perWin[r.Win]++
	}})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for _, e := range wl.stream {
		if err := en.Process(e); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	en.AdvanceWatermark(wl.finalWatermark())
	sort.Slice(o.wins, func(i, j int) bool { return o.wins[i] < o.wins[j] })
	return o, nil
}

// sameNumber compares an oracle number with one received over the
// wire; the two engines may sum in different orders.
func sameNumber(want, got float64) bool {
	if math.IsNaN(want) || math.IsNaN(got) {
		return math.IsNaN(want) && math.IsNaN(got)
	}
	if want == got {
		return true
	}
	return math.Abs(want-got) <= 1e-9*math.Max(math.Abs(want), math.Abs(got))
}
