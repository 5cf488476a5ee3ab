package loadgen_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sharon-project/sharon/internal/loadgen"
	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/obs"
	"github.com/sharon-project/sharon/internal/server"
)

func startServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{
		Queries:        server.DefaultQueries,
		HeartbeatEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return srv, ts
}

// TestLoopbackObservability drives a real loopback run and cross-checks
// the three latency views against each other: the loadgen's client-side
// report (exact percentiles + histogram buckets), the server's JSON
// stage digests, and the Prometheus exposition. All three must agree
// with the run's counters.
func TestLoopbackObservability(t *testing.T) {
	_, ts := startServer(t)
	rep, err := loadgen.Run(loadgen.Config{BaseURL: ts.URL, Events: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results == 0 || rep.Windows == 0 {
		t.Fatalf("no results/windows: %+v", rep)
	}

	// Client-side report: monotone percentiles, buckets covering every
	// window sample.
	if rep.LatencyP50Ms > rep.LatencyP90Ms || rep.LatencyP90Ms > rep.LatencyP99Ms ||
		rep.LatencyP99Ms > rep.LatencyP999Ms || rep.LatencyP999Ms > rep.LatencyMaxMs {
		t.Fatalf("client percentiles not monotone: %+v", rep)
	}
	if len(rep.LatencyBuckets) == 0 {
		t.Fatal("no client latency buckets")
	}
	var bucketTotal int64
	for i, b := range rep.LatencyBuckets {
		bucketTotal += b.Count
		if i > 0 && b.UpperMs <= rep.LatencyBuckets[i-1].UpperMs {
			t.Fatalf("bucket uppers not increasing at %d: %+v", i, rep.LatencyBuckets)
		}
	}
	if bucketTotal != rep.Windows {
		t.Fatalf("bucket total %d != windows %d", bucketTotal, rep.Windows)
	}

	// Server JSON view: counters match the client's ground truth, stage
	// sample counts tie to the pipeline invariants.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var st metrics.ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.EventsIngested != rep.Events {
		t.Fatalf("server ingested %d, loadgen sent %d", st.EventsIngested, rep.Events)
	}
	if st.Batches != rep.Batches {
		t.Fatalf("server batches %d, loadgen posted %d", st.Batches, rep.Batches)
	}
	if st.Stages == nil {
		t.Fatal("JSON metrics carry no stages")
	}
	if got := st.Stages["apply"].Count; got != st.Batches {
		t.Fatalf("apply stage count = %d, want batches = %d", got, st.Batches)
	}
	if got := st.Stages["emit"].Count; got != st.ResultsEmitted {
		t.Fatalf("emit stage count = %d, want results_emitted = %d", got, st.ResultsEmitted)
	}
	if got := st.Stages["decode_ndjson"].Count; got < st.Batches {
		t.Fatalf("decode_ndjson count = %d, want >= %d", got, st.Batches)
	}
	// Cross-check client vs server: the server-side ingest-to-emit p50
	// cannot exceed the client's worst observed window latency (the
	// client adds network and subscription time on top).
	if emit := st.Stages["emit"]; emit.P50 > rep.LatencyMaxMs {
		t.Fatalf("server emit p50 %.3fms exceeds client max %.3fms", emit.P50, rep.LatencyMaxMs)
	}

	// Prometheus view: same counters, valid exposition.
	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseProm(data)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if v, ok := obs.FindSample(samples, "sharon_events_ingested_total", nil); !ok || int64(v) != rep.Events {
		t.Fatalf("sharon_events_ingested_total = %v (ok=%v), want %d", v, ok, rep.Events)
	}
	if v, ok := obs.FindSample(samples, "sharon_stage_latency_seconds_count", map[string]string{"stage": "apply"}); !ok || int64(v) != st.Batches {
		t.Fatalf("apply exposition count = %v (ok=%v), want %d", v, ok, st.Batches)
	}
	p99, ok := obs.HistogramQuantile(samples, "sharon_stage_latency_seconds", 0.99, map[string]string{"stage": "emit"})
	if !ok || p99 <= 0 {
		t.Fatalf("emit p99 from exposition = %v (ok=%v)", p99, ok)
	}
	if p99*1e3 > rep.LatencyMaxMs*1.2 {
		t.Fatalf("exposition emit p99 %.3fms exceeds client max %.3fms", p99*1e3, rep.LatencyMaxMs)
	}
}

// TestWatermarkBackpressureRetried: a 429 on the closing watermark is
// backpressure, not a failure — the run retries it, counts it, and
// still receives the windows the watermark closes.
func TestWatermarkBackpressureRetried(t *testing.T) {
	_, ts := startServer(t)
	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	backend := httputil.NewSingleHostReverseProxy(target)
	backend.FlushInterval = -1 // subscription streams pass through live
	var refused atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/watermark" && refused.CompareAndSwap(false, true) {
			http.Error(w, "ingest queue full", http.StatusTooManyRequests)
			return
		}
		backend.ServeHTTP(w, r)
	}))
	defer front.Close()
	rep, err := loadgen.Run(loadgen.Config{BaseURL: front.URL, Events: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !refused.Load() || rep.Rejected429 == 0 {
		t.Fatalf("watermark 429 not seen or not counted: refused=%v rejected_429=%d", refused.Load(), rep.Rejected429)
	}
	if rep.Results == 0 || rep.Windows == 0 {
		t.Fatalf("no results/windows after the retried watermark: %+v", rep)
	}
}

// TestWatchTicker exercises the -watch scrape loop in both wire
// formats against a server with traffic on it.
func TestWatchTicker(t *testing.T) {
	_, ts := startServer(t)
	if _, err := loadgen.Run(loadgen.Config{BaseURL: ts.URL, Events: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"json", "prometheus"} {
		var buf bytes.Buffer
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := loadgen.Watch(ctx, loadgen.WatchConfig{
			BaseURL: ts.URL,
			Format:  format,
			Every:   100 * time.Millisecond,
			Out:     &buf,
		})
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("%s: Watch returned %v", format, err)
		}
		out := buf.String()
		if !strings.Contains(out, "ev/s") || !strings.Contains(out, "queue") || !strings.Contains(out, "p99") {
			t.Fatalf("%s ticker output missing fields:\n%s", format, out)
		}
		if strings.Contains(out, "watch:") {
			t.Fatalf("%s ticker reported scrape errors:\n%s", format, out)
		}
	}
}
