// Public-API tests for the OnResult sink contract: push-based emission
// order, the Results()/sink exclusivity, and watermark-driven emission
// without a terminal Flush. These pin the contracts the sharond server
// builds on (internal/server).
package sharon_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	sharon "github.com/sharon-project/sharon"
)

// pushOrder returns rs re-sorted into the sink's delivery order —
// (window end, query ID, group); with uniform windows the window index
// stands in for the end. Results() reports query-major order instead, so
// tests comparing a collected reference against a pushed sequence sort
// the reference first.
func pushOrder(rs []sharon.Result) []sharon.Result {
	out := append([]sharon.Result(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Win != out[j].Win {
			return out[i].Win < out[j].Win
		}
		if out[i].Query != out[j].Query {
			return out[i].Query < out[j].Query
		}
		return out[i].Group < out[j].Group
	})
	return out
}

// TestSinkDeterministicOrder pins the sink's delivery order: a
// sequential system pushes results in exactly the (window end, query ID,
// group) order — the same order Results() reports after a collect run —
// so a subscriber sees the canonical stream without re-sorting.
func TestSinkDeterministicOrder(t *testing.T) {
	w, stream := genGrouped(t, 6, 5000, 10)
	rates := sharon.MeasureRates(stream, w)

	collect, err := sharon.NewSystem(w, sharon.Options{Rates: rates, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer collect.Close()
	if err := collect.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	want := pushOrder(collect.Results())
	if len(want) == 0 {
		t.Fatal("collect run produced no results")
	}

	var pushed []sharon.Result
	sink, err := sharon.NewSystem(w, sharon.Options{
		Rates:       rates,
		Parallelism: 1,
		OnResult:    func(r sharon.Result) { pushed = append(pushed, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	if err := sink.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, pushed, "sequential sink order")

	// The parallel merge delivers the identical sequence.
	var mu sync.Mutex
	var par []sharon.Result
	psys, err := sharon.NewSystem(w, sharon.Options{
		Rates:       rates,
		Parallelism: 4,
		OnResult: func(r sharon.Result) {
			mu.Lock()
			par = append(par, r)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer psys.Close()
	if err := psys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	requireIdentical(t, want, par, "parallel sink order")
}

// TestResultsWithSinkContract pins the Results()/sink duality: a system
// with an attached OnResult sink never retains results — Results()
// returns nil before and after Flush, in every configuration, while
// ResultCount still reports the delivered total. The sink is the single
// consumer; there is no snapshot racing with the callback.
func TestResultsWithSinkContract(t *testing.T) {
	w, stream := genGrouped(t, 4, 3000, 8)
	rates := sharon.MeasureRates(stream, w)

	// A second copy of the workload under another window makes it
	// non-uniform, so the "partitioned" row runs segments.
	segmented := append(sharon.Workload(nil), w...)
	for _, q := range w {
		c := *q
		c.ID += len(w)
		c.Window.Length *= 2
		segmented = append(segmented, &c)
	}
	for _, tc := range []struct {
		name string
		w    sharon.Workload
		opts sharon.Options
	}{
		{"system-sequential", w, sharon.Options{Parallelism: 1}},
		// The callback runs on the merge goroutine; n is read after Flush.
		{"system-parallel", w, sharon.Options{Parallelism: 4}},
		{"partitioned", segmented, sharon.Options{Parallelism: 1}},
		{"dynamic", w, sharon.Options{Parallelism: 1, Dynamic: &sharon.DynamicOptions{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var n int64
			opts := tc.opts
			opts.Rates = rates
			opts.OnResult = func(sharon.Result) { n++ }
			sys, err := sharon.NewSystem(tc.w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Results(); got != nil {
				t.Fatalf("Results() before feed = %d results, want nil", len(got))
			}
			if err := sys.ProcessAll(stream); err != nil {
				t.Fatal(err)
			}
			if got := sys.Results(); got != nil {
				t.Fatalf("Results() with sink attached = %d results, want nil", len(got))
			}
			if n == 0 {
				t.Fatal("sink received no results")
			}
			if sys.ResultCount() != n {
				t.Fatalf("ResultCount() = %d, sink received %d", sys.ResultCount(), n)
			}
		})
	}
}

// waitForCount polls an atomic-ish counter until it reaches want; the
// parallel path delivers results asynchronously after a watermark.
func waitForCount(t *testing.T, label string, count func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: delivered %d results, want %d", label, count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdvanceWatermarkEmitsWithoutFlush pins watermark-driven emission:
// on an unbounded stream no terminal Flush is needed — advancing the
// watermark past the last window's end pushes every result through the
// sink, sequentially and in parallel, matching a flushed run exactly.
func TestAdvanceWatermarkEmitsWithoutFlush(t *testing.T) {
	w, stream := genGrouped(t, 4, 4000, 8)
	rates := sharon.MeasureRates(stream, w)
	win := w[0].Window
	winEnd := win.End(win.LastContaining(stream[len(stream)-1].Time))

	// Split where (a) at least two windows have closed, so a mid-stream
	// watermark must push something, and (b) a time gap follows, so the
	// watermark stream[split-1].Time+1 makes no later event late.
	split := 0
	for i := 1; i < len(stream); i++ {
		if stream[i-1].Time > win.End(1) && stream[i].Time > stream[i-1].Time+1 {
			split = i
			break
		}
	}
	if split == 0 {
		t.Fatal("no usable split point in generated stream")
	}

	ref, err := sharon.NewSystem(w, sharon.Options{Rates: rates, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	want := pushOrder(ref.Results())
	if len(want) == 0 {
		t.Fatal("reference run produced no results")
	}

	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		var got []sharon.Result
		sys, err := sharon.NewSystem(w, sharon.Options{
			Rates:       rates,
			Parallelism: par,
			OnResult: func(r sharon.Result) {
				mu.Lock()
				got = append(got, r)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		count := func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return int64(len(got))
		}
		if err := sys.FeedBatch(stream[:split]); err != nil {
			t.Fatal(err)
		}
		// A mid-stream watermark forces timely emission of every window
		// closed so far — the parallel path must not sit on partial
		// batches below the dispatch threshold.
		sys.AdvanceWatermark(stream[split-1].Time + 1)
		waitForCount(t, "mid-stream watermark", count, 1)
		if err := sys.FeedBatch(stream[split:]); err != nil {
			t.Fatal(err)
		}
		sys.AdvanceWatermark(winEnd)
		waitForCount(t, "final watermark", count, int64(len(want)))
		sys.Close() // the watermark delivered everything; Close only reclaims
		mu.Lock()
		requireIdentical(t, want, got, "watermark-driven emission")
		mu.Unlock()
	}
}
