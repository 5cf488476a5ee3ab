// Command perfbench is the Sharon serving benchmark. It builds nothing
// itself (run.sh builds sharond and this program from the tree under
// test); it runs sharond as child processes, drives them from this one
// process over at most two connections (one ingest, one subscription),
// checks every received result against a plan-independent in-process
// oracle, and prints the end-to-end metrics of one workload:
//
//	perfbench -sharond .bench_build/sharond -workload traffic-shared -seed 1 -seconds 12 -trace 0
//
// Each run has three phases, each against fresh server processes: a
// closed-loop saturation phase sent in drained chunks (max_eps), then
// open-loop phases at the fixed lo and hi rates
// stored in rates.json; further server starts, spread between the
// phases, time set-up (setup_s). The final line carries the metrics
// BENCHMARK.json lists, with the units it gives. With -trace 1 it also
// replays the same messages in process through each layer's public
// functions, recording spans, and prints the per-layer metrics instead.
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or \"all\" for a smoke run of every workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "measured seconds per run, over the three phases")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.sharond, "sharond", ".bench_build/sharond", "sharond binary built from the tree under test")
	flag.StringVar(&cfg.ratesPath, "rates", "perfbench/rates.json", "fixed open-loop rates")
	flag.StringVar(&cfg.benchPath, "benchmark", "BENCHMARK.json", "the benchmark's metric list: names and units the final line carries")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "directory for scratch data, spans and records")
	flag.StringVar(&cfg.serverCPUs, "server-cpus", "", "taskset CPU list for the server processes (empty = unpinned)")
	flag.Parse()

	// The generator shares the machine's CPUs with the servers it
	// measures: keep its garbage collector out of the measured phases
	// (it runs only near the memory limit).
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(768 << 20)
	var res *result
	var err error
	if cfg.workload == "all" {
		res, err = runAll(cfg, os.Stdout)
	} else {
		res, err = run(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// config is one invocation.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	sharond    string
	ratesPath  string
	benchPath  string
	work       string
	serverCPUs string
	scratch    string // per-run scratch directory under work
	opt        runOptions
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line's object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec is one metric BENCHMARK.json lists.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json this program reads: the
// metrics the final line carries, with their units. It is the one
// list of them; the program checks its measurements against it.
type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// rateFile holds the open-loop rates, sized once on a reference
// machine and never derived from the run under test.
type rateFile struct {
	Machine     string              `json:"machine"`
	HeldOutSeed int64               `json:"held_out_seed"`
	Workloads   map[string]rateSpec `json:"workloads"`
}

// satShare is the part of a run's measured seconds the saturation
// phase gets at the reference max; the open-loop phases share the rest.
const satShare = 1.0 / 3

type rateSpec struct {
	// MaxEPS is the reference saturation throughput; with the rates
	// it sizes the streams so that one run measures about -seconds.
	MaxEPS float64 `json:"max_eps_ref"`
	LoEPS  float64 `json:"lo_eps"`
	HiEPS  float64 `json:"hi_eps"`
}

func loadRates(path string) (rateFile, error) {
	var rf rateFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// runAll is the smoke mode: every workload in turn, each for
// cfg.seconds, with metrics keyed "workload/metric" on the final line.
func runAll(cfg config, out io.Writer) (*result, error) {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range workloadNames {
		c := cfg
		c.workload = name
		res, err := run(c, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[name+"/"+k] = v
		}
	}
	return all, nil
}

// run executes one benchmark run, writing the human-readable report
// to out, and returns the final line's object.
func run(cfg config, out io.Writer) (*result, error) {
	if _, err := os.Stat(cfg.sharond); err != nil {
		return nil, fmt.Errorf("sharond binary: %w", err)
	}
	rf, err := loadRates(cfg.ratesPath)
	if err != nil {
		return nil, err
	}
	bf, err := loadBenchmarkFile(cfg.benchPath)
	if err != nil {
		return nil, err
	}
	spec, ok := rf.Workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	// The saturation phase gets satShare of the run at the reference
	// max; the open-loop phases send a prefix of the same stream, sized
	// so that lo and hi together take the rest.
	nSat := int(satShare * cfg.seconds * spec.MaxEPS)
	nOpen := int((1 - satShare) * cfg.seconds / (1/spec.LoEPS + 1/spec.HiEPS))
	wl, err := buildWorkload(cfg.workload, cfg.seed, max(nSat, nOpen, 1000))
	if err != nil {
		return nil, err
	}
	open := wl.prefix(max(nOpen, 1000))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	if cfg.scratch, err = os.MkdirTemp(cfg.work, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.scratch)

	oSat, err := computeOracle(wl)
	if err != nil {
		return nil, err
	}
	oOpen, err := computeOracle(open)
	if err != nil {
		return nil, err
	}
	prov := provenance(cfg, rf, spec)
	fmt.Fprintf(out, "workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(out, "  %d queries, batches of %d (%s ingest, %s subscriber); saturation: %d events, %d expected results in %d windows; open loop: %d events, %d results in %d windows\n",
		len(wl.queries), wl.batch, wl.ingest, wl.sub, len(wl.stream), len(oSat.count), len(oSat.wins), len(open.stream), len(oOpen.count), len(oOpen.wins))

	satBatches, openBatches := encodeBatches(wl), encodeBatches(open)
	phases := []struct {
		phase
		wl      *workload
		o       *oracle
		batches []batch
	}{
		{phase{name: "sat"}, wl, oSat, satBatches},
		{phase{name: "lo", rate: spec.LoEPS}, open, oOpen, openBatches},
		{phase{name: "hi", rate: spec.HiEPS}, open, oOpen, openBatches},
	}
	var stats []*phaseStats
	var setups []float64
	for i, ph := range phases {
		if !cfg.opt.replay {
			if setups, err = extraSetups(wl, oSat, cfg, i, setups); err != nil {
				return nil, err
			}
		}
		schedule(ph.wl, ph.batches, ph.rate)
		ps, err := runPhase(ph.wl, ph.o, ph.batches, ph.phase, cfg)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", ph.name, err)
		}
		stats = append(stats, ps)
		setups = append(setups, ps.setupS)
	}
	if !cfg.opt.replay {
		if setups, err = extraSetups(wl, oSat, cfg, len(phases), setups); err != nil {
			return nil, err
		}
	}
	rep := summarize(wl, stats, setups)
	rep.print(out)

	res := &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed}
	if cfg.trace == 0 {
		res.Metrics, err = rep.endToEnd(bf.EndToEnd)
	} else {
		spans := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-%d.tsv", wl.name, cfg.seed))
		res.Metrics, err = traceLayers(wl, stats, bf.PerLayer, cfg.scratch, spans, out)
	}
	if err != nil {
		return nil, err
	}
	rows := make(map[string]any, len(rep.rows))
	for _, r := range rep.rows {
		rows[r.name] = map[string]any{"value": r.value, "unit": r.unit, "samples": r.samples}
	}
	record := map[string]any{"provenance": prov, "workload": wl.name, "seed": cfg.seed, "trace": cfg.trace,
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics, "end_to_end": rows,
		"sat_chunk_eps": stats[0].chunkEPS, "setups_s": setups}
	line, _ := json.Marshal(record)
	fmt.Fprintf(out, "record %s\n", line)
	if err := os.WriteFile(filepath.Join(cfg.work, fmt.Sprintf("record-%s-%d-trace%d.json", wl.name, cfg.seed, cfg.trace)), append(line, '\n'), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}
