// Public-API tests for Options.Parallelism: the sharded parallel
// executors must produce byte-identical results to the sequential path
// on the paper workload generator, for grouped, partitioned, and dynamic
// systems. Run with -race (CI does) to exercise the worker/merge
// concurrency.
package sharon_test

import (
	"testing"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
)

// genGrouped builds a grouped multi-query chunk workload and a matching
// stream from the paper generator.
func genGrouped(t *testing.T, nq, events, keys int) (sharon.Workload, sharon.Stream) {
	t.Helper()
	wcfg := gen.WorkloadConfig{
		NumQueries: nq, PatternLen: 6,
		SharedChunks: 3, ChunkLen: 2, ChunksPerQuery: 2, FillerPool: 10,
		Window: 5000, Slide: 1000,
		GroupBy: true, Seed: 3,
	}
	w, types := gen.GenWorkload(event.NewRegistry(), wcfg)
	stream := gen.StreamForWorkload(types, gen.NumHotTypes(wcfg), events, keys, 500, 3, 3)
	return w, stream
}

// requireIdentical compares full result sets byte-for-byte.
func requireIdentical(t *testing.T, want, got []sharon.Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: result %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestParallelismMatchesSequential is the public acceptance check:
// Parallelism: N equals Parallelism: 1 byte-for-byte on a grouped
// multi-query workload, for the shared and non-shared strategies.
func TestParallelismMatchesSequential(t *testing.T) {
	w, stream := genGrouped(t, 8, 6000, 12)
	rates := sharon.MeasureRates(stream, w)
	for _, strat := range []sharon.Strategy{sharon.StrategySharon, sharon.StrategyNonShared} {
		seq, err := sharon.NewSystem(w, sharon.Options{Strategy: strat, Rates: rates, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer seq.Close()
		if err := seq.ProcessAll(stream); err != nil {
			t.Fatal(err)
		}
		want := seq.Results()
		if len(want) == 0 {
			t.Fatal("sequential system produced no results")
		}
		for _, par := range []int{2, 4} {
			sys, err := sharon.NewSystem(w, sharon.Options{Strategy: strat, Rates: rates, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.ProcessAll(stream); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, sys.Results(), "parallelism="+string(rune('0'+par)))
			st := sys.ParallelStats()
			if st.Workers != par {
				t.Fatalf("ParallelStats.Workers = %d, want %d", st.Workers, par)
			}
			if st.EventsFed != int64(len(stream)) {
				t.Fatalf("ParallelStats.EventsFed = %d, want %d", st.EventsFed, len(stream))
			}
		}
	}
}

// TestParallelismFeedBatch checks the batched entry point end to end.
func TestParallelismFeedBatch(t *testing.T) {
	w, stream := genGrouped(t, 4, 3000, 8)
	seq, err := sharon.NewSystem(w, sharon.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if err := seq.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	sys, err := sharon.NewSystem(w, sharon.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Feed in uneven chunks to cross batch boundaries.
	for i := 0; i < len(stream); {
		j := i + 700
		if j > len(stream) {
			j = len(stream)
		}
		if err := sys.FeedBatch(stream[i:j]); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, seq.Results(), sys.Results(), "feedbatch")
}

// TestParallelismExplain checks plan introspection survives sharding.
func TestParallelismExplain(t *testing.T) {
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, C) WHERE [vehicle] WITHIN 10s SLIDE 5s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, D) WHERE [vehicle] WITHIN 10s SLIDE 5s", reg),
	}
	w.Renumber()
	cands := sharon.FindCandidates(w)
	sys, err := sharon.NewSystem(w, sharon.Options{Plan: sharon.Plan{cands[0]}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if s := sys.Explain(reg); s == "" {
		t.Error("Explain returned nothing under Parallelism: 2")
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPartitionedSystem checks §7.2 segment sharding through the
// public API on a mixed-window/predicate workload.
func TestParallelPartitionedSystem(t *testing.T) {
	reg := sharon.NewRegistry()
	w := sharon.Workload{
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [key] WITHIN 4s SLIDE 2s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, B, C) WHERE [key] WITHIN 4s SLIDE 2s", reg),
		sharon.MustParseQuery("RETURN SUM(C.val) PATTERN SEQ(B, C) WHERE [key] WITHIN 8s SLIDE 4s", reg),
		sharon.MustParseQuery("RETURN COUNT(*) PATTERN SEQ(A, C) WHERE A.val > 40 WITHIN 6s SLIDE 3s", reg),
	}
	w.Renumber()
	types := []sharon.Type{reg.Lookup("A"), reg.Lookup("B"), reg.Lookup("C")}
	stream := gen.StreamForWorkload(types, 3, 4000, 6, 400, 1, 9)

	seq, err := sharon.NewSystem(w, sharon.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if err := seq.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	want := seq.Results()
	if len(want) == 0 {
		t.Fatal("sequential partitioned system produced no results")
	}

	sys, err := sharon.NewSystem(w, sharon.Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Segments() != seq.Segments() {
		t.Fatalf("segments = %d, want %d", sys.Segments(), seq.Segments())
	}
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, sys.Results(), "partitioned")
	if st := sys.ParallelStats(); st.Workers < 2 {
		t.Fatalf("expected parallel partitioned run, got %d workers", st.Workers)
	}
}

// TestParallelDynamicSystem checks §7.4 sharding through the public API:
// independently migrating shards still produce the sequential results.
func TestParallelDynamicSystem(t *testing.T) {
	w, stream := genGrouped(t, 4, 5000, 8)
	rates := sharon.MeasureRates(stream[:500], w)

	seq, err := sharon.NewSystem(w, sharon.Options{Rates: rates, Parallelism: 1, Dynamic: &sharon.DynamicOptions{DriftThreshold: 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	if err := seq.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	want := seq.Results()
	if len(want) == 0 {
		t.Fatal("sequential dynamic system produced no results")
	}

	var migrations int
	sys, err := sharon.NewSystem(w, sharon.Options{Rates: rates, Parallelism: 4, Dynamic: &sharon.DynamicOptions{
		DriftThreshold: 0.3,
		OnMigrate:      func(at int64, old, new sharon.Plan) { migrations++ },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.ProcessAll(stream); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, sys.Results(), "dynamic")
	if sys.Migrations() != migrations {
		t.Fatalf("Migrations() = %d, callbacks = %d", sys.Migrations(), migrations)
	}
	_ = sys.Plan() // post-flush introspection must not panic
}
