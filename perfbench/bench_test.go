package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildSharond compiles the server of this tree once per test binary.
func buildSharond(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sharond")
	cmd := exec.Command("go", "build", "-o", bin, "../cmd/sharond")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("build sharond: %v", err)
	}
	return bin
}

func smokeConfig(t *testing.T, sharond, workload string, trace int) config {
	return config{
		workload:  workload,
		seed:      1,
		seconds:   1.5,
		trace:     trace,
		sharond:   sharond,
		ratesPath: "rates.json",
		benchPath: "../BENCHMARK.json",
		work:      t.TempDir(),
		opt:       runOptions{quiet: time.Second},
	}
}

// TestSmoke runs every workload briefly, untraced and traced. Each run
// must pass the oracle and print every metric BENCHMARK.json names,
// with its unit; end-to-end values must be positive.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real servers")
	}
	sharond := buildSharond(t)
	bf, err := loadBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for trace, want := range [][]metricSpec{bf.EndToEnd, bf.PerLayer} {
				var out strings.Builder
				res, err := run(smokeConfig(t, sharond, name, trace), &out)
				if err != nil {
					t.Fatalf("trace %d: %v\n%s", trace, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace %d: oracle failed: %+v\n%s", trace, res, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace %d: metric %s missing", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace %d: metric %s unit %q, want %q", trace, m.Name, got.Unit, m.Unit)
					case trace == 0 && !(got.Value > 0):
						t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				for _, row := range []string{"max_eps", "lat_p50_ms.lo", "lat_p99_ms.lo", "lat_p50_ms.hi", "lat_p99_ms.hi", "cpu_us_per_event.hi", "setup_s", "peak_rss_mb", "failed_frac"} {
					if !strings.Contains(out.String(), "  "+row+" ") {
						t.Errorf("trace %d: report lacks the %s row", trace, row)
					}
				}
			}
		})
	}
}

// TestReplayedTicksFail re-sends every workload's stream to a server
// that has already applied it. Every event then arrives late and the
// server answers nothing: the run must report that as failed, never as
// a clean zero.
func TestReplayedTicksFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real servers")
	}
	sharond := buildSharond(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := smokeConfig(t, sharond, name, 0)
			cfg.seconds = 0.5
			cfg.opt.replay = true
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("replayed ticks read as a pass: %+v", res)
			}
		})
	}
}

// TestParseResult covers the subscriber's allocation-free parser on the
// server's result encoding.
func TestParseResult(t *testing.T) {
	r, ok, err := parseResult([]byte(`{"seq":12,"query":3,"win":40,"start":1000,"end":5000,"group":-7,"count":2.5e+20,"value":null}`))
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if r.seq != 12 || r.query != 3 || r.win != 40 || r.end != 5000 || r.group != -7 || r.count != 2.5e20 || r.value == r.value {
		t.Fatalf("parsed %+v", r)
	}
	if _, ok, err := parseResult([]byte(`{"event":"wm","watermark":5}`)); ok || err != nil {
		t.Fatalf("control frame: ok=%v err=%v", ok, err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, _, _ = parseResult([]byte(`{"seq":1,"query":0,"win":2,"start":0,"end":4,"group":1,"count":3,"value":3}`))
	}); allocs > 1 {
		t.Errorf("parseResult allocates %v times per frame", allocs)
	}
}
