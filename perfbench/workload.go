package main

import (
	"fmt"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/gen"
	"github.com/sharon-project/sharon/internal/query"
)

// workload is one benchmark input: the query texts sharond is started
// with, the seeded event stream the generator sends, and how the
// server is deployed and fed. The server receives only the texts and
// the events; everything else stays on the benchmark side.
type workload struct {
	name    string
	why     string
	queries []string        // query texts, one -query flag each, in ID order
	reg     *event.Registry // interns every type the queries and stream use
	w       query.Workload  // the texts re-parsed (IDs = flag order)
	stream  event.Stream    // strictly time-ordered, only query types

	ingest   string // "stream" (/ingest/stream), "binary" or "ndjson" one-shot POSTs
	sub      string // "sse" or "ws"
	batch    int    // events per ingest batch
	wal      bool   // durable server (-data-dir, -fsync interval)
	adaptive bool   // sharond -adaptive
	workers  int    // 0 = one sharond; n = router + n workers
}

// workloadNames lists the workloads in the order they are documented.
var workloadNames = []string{"traffic-shared", "chunks-edge", "bursty-adaptive", "cluster-2w"}

// buildWorkload generates workload name with events stream events from
// seed. The query set of every workload is fixed (the deployment); the
// seed drives the traffic, so set-up work is the same on every seed.
func buildWorkload(name string, seed int64, events int) (*workload, error) {
	reg := event.NewRegistry()
	var (
		w      query.Workload
		stream event.Stream
		wl     = &workload{name: name, reg: reg}
	)
	switch name {
	case "traffic-shared":
		// The paper's Table 1 traffic queries over 3 neighbourhoods,
		// grouped by vehicle, with 4x-overlapping windows: the shared
		// engine does most of the per-event work.
		var types []event.Type
		var weights []float64
		w, types, weights = gen.TrafficReplicas(reg, 3)
		for _, q := range w {
			q.Window = query.Window{Length: 4000, Slide: 1000}
		}
		stream = gen.Generate(gen.StreamConfig{
			Types: types, TypeWeights: weights, NumKeys: 2,
			Events: events, StartRate: 250, EndRate: 250, Seed: seed,
		})
		wl.why = "shared engine dominates: Table 1 traffic queries, few vehicles, overlapping windows"
		wl.ingest, wl.sub, wl.batch = "stream", "sse", 128
	case "chunks-edge":
		// Fig. 14's chunk-sharing shape with short windows and many
		// groups: a light engine, an expensive optimizer, and the edge
		// (NDJSON decode, WAL, result egress) carrying per-event cost.
		cfg := gen.WorkloadConfig{
			NumQueries: 20, PatternLen: 5,
			SharedChunks: 3, ChunkLen: 2, ChunksPerQuery: 2, FillerPool: 10,
			DuplicateFraction: 0.5,
			Window:            500, Slide: 50,
			GroupBy: true, Seed: 7,
		}
		var types []event.Type
		w, types = gen.GenWorkload(reg, cfg)
		stream = gen.StreamForWorkload(types, gen.NumHotTypes(cfg), events, 16, 1000, 3, seed)
		wl.why = "edge-bound: optimizer set-up, NDJSON decode, WAL append and result egress"
		wl.ingest, wl.sub, wl.batch, wl.wal = "ndjson", "ws", 64, true
	case "bursty-adaptive":
		// BENCH_bursty's shape: 8 queries sharing a hot (C,D) suffix
		// behind distinct prefixes, under square-wave bursts.
		const nq = 8
		hot := []event.Type{reg.Intern("C"), reg.Intern("D")}
		pool := make([]event.Type, nq)
		for i := range pool {
			pool[i] = reg.Intern(fmt.Sprintf("P%d", i))
		}
		for i := 0; i < nq; i++ {
			w = append(w, &query.Query{
				ID:      i,
				Pattern: query.Pattern{pool[i], pool[(i+1)%nq], hot[0], hot[1]},
				Agg:     query.AggSpec{Kind: query.CountStar},
				Window:  query.Window{Length: 512, Slide: 32},
			})
		}
		types := append(append([]event.Type(nil), hot...), pool...)
		weights := make([]float64, len(types))
		weights[0], weights[1] = 6, 6
		for i := 2; i < len(weights); i++ {
			weights[i] = 2
		}
		stream = gen.GenerateBursty(gen.BurstyConfig{
			Types: types, TypeWeights: weights, Events: events,
			BaseRate: 200, BurstRate: 1000, Period: 24, Duty: 0.25,
			Shape: gen.ShapeSquare, Seed: seed,
		})
		wl.why = "adaptive runtime: share/split switching under square-wave bursts"
		wl.ingest, wl.sub, wl.batch, wl.adaptive = "stream", "sse", 128, true
	case "cluster-2w":
		// The three demo queries over many groups with short slides,
		// served by a router in front of two workers.
		for _, p := range [][]string{{"A", "B", "C", "D"}, {"C", "D"}, {"A", "B"}} {
			pat := make(query.Pattern, len(p))
			for i, n := range p {
				pat[i] = reg.Intern(n)
			}
			w = append(w, &query.Query{
				Pattern: pat,
				Agg:     query.AggSpec{Kind: query.CountStar},
				Window:  query.Window{Length: 400, Slide: 50},
				GroupBy: true,
			})
		}
		w.Renumber()
		types := []event.Type{reg.Lookup("A"), reg.Lookup("B"), reg.Lookup("C"), reg.Lookup("D")}
		stream = gen.Generate(gen.StreamConfig{
			Types: types, NumKeys: 16, Events: events,
			StartRate: 1000, EndRate: 1000, Seed: seed,
		})
		wl.why = "cluster path: router forward, lane re-parse and merge over two workers"
		wl.ingest, wl.sub, wl.batch, wl.workers = "binary", "sse", 256, 2
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}

	// The server sees only the texts: re-parse them so the oracle and
	// the traced replay run exactly the workload sharond compiles.
	wl.queries = make([]string, len(w))
	wl.w = make(query.Workload, len(w))
	for i, q := range w {
		wl.queries[i] = q.Format(reg)
		pq, err := query.Parse(wl.queries[i], reg)
		if err != nil {
			return nil, fmt.Errorf("%s: query %d: %w", name, i, err)
		}
		pq.ID = i
		wl.w[i] = pq
	}
	// Events of types no query names are dropped by the server before
	// they advance its clock; keep them out so both sides close windows
	// on the same events.
	used := wl.w.Types()
	for _, e := range stream {
		if used[e.Type] {
			wl.stream = append(wl.stream, e)
		}
	}
	if len(wl.stream) == 0 {
		return nil, fmt.Errorf("%s: empty stream", name)
	}
	return wl, nil
}

// prefix is the workload cut to its first n events (and closed by its
// own final watermark).
func (wl *workload) prefix(n int) *workload {
	p := *wl
	p.stream = wl.stream[:min(n, len(wl.stream))]
	return &p
}

// typeNames lists the registry's names so that local wire id i+1 is
// event.Type i+1.
func (wl *workload) typeNames() []string { return wl.reg.Ordered() }

// window is the workload's (uniform) window.
func (wl *workload) window() query.Window { return wl.w[0].Window }

// finalWatermark closes every window the stream touches.
func (wl *workload) finalWatermark() int64 {
	win := wl.window()
	return wl.stream[len(wl.stream)-1].Time + win.Length + win.Slide
}
