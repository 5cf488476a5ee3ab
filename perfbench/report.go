package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/sharon-project/sharon/internal/metrics"
	"github.com/sharon-project/sharon/internal/obs"
)

// quantile is the nearest-rank q-quantile of xs (+Inf allowed); xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// row is one printed metric.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
	note    string
}

// report is the end-to-end summary of one run's three phases.
type report struct {
	wl        *workload
	sat       *phaseStats
	lo, hi    *phaseStats
	phases    []*phaseStats
	attempted int64
	failed    int64
	rows      []row
	checks    []string // stage-bound and validity rows
}

func summarize(wl *workload, phases []*phaseStats, setups []float64) *report {
	r := &report{wl: wl, sat: phases[0], lo: phases[1], hi: phases[2], phases: phases}
	for _, ps := range phases {
		r.attempted += ps.expected + ps.requests
		r.failed += ps.failures()
	}
	r.rows = append(r.rows,
		row{"max_eps", slices.Max(append([]float64{0}, r.sat.chunkEPS...)), "events/s", len(r.sat.chunkEPS),
			fmt.Sprintf("best of %d drained chunks (median %.0f); whole phase %.0f ev/s, first send to last result %.3fs",
				len(r.sat.chunkEPS), quantile(append([]float64(nil), r.sat.chunkEPS...), 0.5), float64(r.sat.events)/r.sat.drainS, r.sat.drainS)},
		row{"cpu_us_per_event.hi", 1e6 * r.hi.serverCPU / float64(r.hi.events), "us", r.hi.events,
			fmt.Sprintf("server CPU time per event at the fixed hi rate, summed over server processes (%.3fs of CPU)", r.hi.serverCPU)})
	for _, ps := range []*phaseStats{r.lo, r.hi} {
		for _, q := range []float64{0.50, 0.99} {
			v, note := r.latency(ps, q)
			r.rows = append(r.rows, row{fmt.Sprintf("lat_p%d_ms.%s", int(q*100), ps.name), v, "ms", len(ps.winLatMs), note})
		}
	}
	r.rows = append(r.rows,
		row{"setup_s", quantile(setups, 0.5), "s", len(setups), "median over the phases' and extra server starts"},
		row{"peak_rss_mb", quantile([]float64{r.sat.rssMB, r.lo.rssMB, r.hi.rssMB}, 0.5), "MB", len(phases),
			fmt.Sprintf("median over the phases of VmHWM at phase end, summed over server processes (saturation %.1f)", r.sat.rssMB)},
		row{"failed_frac", float64(r.failed) / float64(r.attempted), "ratio", int(r.attempted), "missing, duplicate or wrong results and failed requests"},
	)
	for _, ps := range []*phaseStats{r.lo, r.hi} {
		r.checks = append(r.checks, r.stageBound(ps))
	}
	return r
}

// latency is a window-latency quantile of an open-loop phase. Missed
// windows count as +Inf; if the quantile lands on one, the phase's
// whole duration stands in for it, since the window missed every limit
// up to that.
func (r *report) latency(ps *phaseStats, q float64) (float64, string) {
	v := quantile(append([]float64(nil), ps.winLatMs...), q)
	missed := 0
	for _, x := range ps.winLatMs {
		if math.IsInf(x, 1) {
			missed++
		}
	}
	note := fmt.Sprintf("%.0f ev/s open loop, %d windows missed", ps.rate, missed)
	if math.IsInf(v, 1) || math.IsNaN(v) {
		v = ps.wallS * 1000
		note += " (quantile is a missed window: phase duration reported)"
	}
	return v, note
}

// stageBound compares the server's scraped stage p50s along the
// result path with the client's p50: server stages cannot legitimately
// add up to more than what the client saw, so a larger sum flags
// stages that overlap or clocks that disagree.
func (r *report) stageBound(ps *phaseStats) string {
	var stages map[string]obs.Summary
	var names []string
	switch {
	case ps.scr.server != nil:
		stages = ps.scr.server.Stages
		names = []string{"decode_" + r.wl.ingest, "queue", "apply", "emit", "fanout"}
	case ps.scr.router != nil:
		stages = ps.scr.router.Stages
		names = []string{"decode_" + r.wl.ingest, "queue", "forward", "fanout"}
	default:
		return fmt.Sprintf("stage-bound %-3s: no scrape (%v)", ps.name, ps.scrapeErr)
	}
	var sum float64
	var parts []string
	for _, n := range names {
		sum += stages[n].P50
		parts = append(parts, fmt.Sprintf("%s %.3f", n, stages[n].P50))
	}
	client, _ := r.latency(ps, 0.5)
	verdict := "ok"
	if sum > client {
		verdict = "FLAGGED: server stage p50s exceed the client's p50"
	}
	return fmt.Sprintf("stage-bound %-3s: %s = %.3f ms vs client lat_p50 %.3f ms: %s", ps.name, strings.Join(parts, " + "), sum, client, verdict)
}

func (r *report) print(out io.Writer) {
	for _, ps := range r.phases {
		fmt.Fprintf(out, "  phase %-3s: setup %.3fs, %d messages (%d refused, %d failed), %d/%d results (missing %d, dup %d, wrong %d, extra %d, seq gaps %d), wall %.3fs",
			ps.name, ps.setupS, ps.requests, ps.refused, ps.reqFailed, ps.matched, ps.expected,
			ps.missing, ps.dups, ps.wrong, ps.extra, ps.seqGaps, ps.wallS)
		if ps.terminal != "" {
			fmt.Fprintf(out, ", stream ended: %s", ps.terminal)
		}
		fmt.Fprintln(out)
		if ps.matched == 0 {
			fmt.Fprintf(out, "  phase %-3s: FAILED: received no results\n", ps.name)
		}
	}
	fmt.Fprintf(out, "  %-19s %14s %-12s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	for _, m := range r.rows {
		fmt.Fprintf(out, "  %-19s %14.4f %-12s %8d  %s\n", m.name, m.value, m.unit, m.samples, m.note)
	}
	for _, c := range r.checks {
		fmt.Fprintf(out, "  %s\n", c)
	}
	for _, ps := range []*phaseStats{r.lo, r.hi} {
		xs := append([]float64(nil), ps.winLatMs...)
		fmt.Fprintf(out, "  window latency %-3s ms: p50 %.3f p75 %.3f p90 %.3f p95 %.3f p99 %.3f p99.9 %.3f (%d windows)\n", ps.name,
			quantile(xs, 0.5), quantile(xs, 0.75), quantile(xs, 0.9), quantile(xs, 0.95), quantile(xs, 0.99), quantile(xs, 0.999), len(xs))
	}
}

// endToEnd is the final line's metrics for an untraced run: the rows
// BENCHMARK.json lists as end_to_end, with the units it gives them.
// The other rows are printed and recorded only; failed_frac rides in
// the line's attempted and failed counts, since it is 0 on a correct
// run and a metric on the line must never read 0.
func (r *report) endToEnd(specs []metricSpec) (map[string]metric, error) {
	m := make(map[string]metric, len(specs))
	for _, sp := range specs {
		i := slices.IndexFunc(r.rows, func(row row) bool { return row.name == sp.Name })
		if i < 0 {
			return nil, fmt.Errorf("BENCHMARK.json names end-to-end metric %s, which the report lacks", sp.Name)
		}
		if r.rows[i].unit != sp.Unit {
			return nil, fmt.Errorf("metric %s: reported in %s, BENCHMARK.json says %s", sp.Name, r.rows[i].unit, sp.Unit)
		}
		m[sp.Name] = metric{r.rows[i].value, sp.Unit}
	}
	return m, nil
}

// traceEvents caps the in-process replays at a prefix of the stream:
// per-event costs settle well before it, and the traced run stays
// within its time budget on the largest workloads.
const traceEvents = 200000

// traceLayers runs the in-process replays and assembles the per-layer
// metrics, adding what the untraced phases scraped from the servers.
func traceLayers(full *workload, stats []*phaseStats, specs []metricSpec, scratch, spansPath string, out io.Writer) (map[string]metric, error) {
	sat, hi := stats[0], stats[2]
	wl := full.prefix(traceEvents)
	batches := encodeBatches(wl)
	tr := &tracer{base: time.Now()}
	opt, err := optimize(wl.w, tr)
	if err != nil {
		return nil, err
	}
	plan := opt.Plan

	walU, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	untraced, err := replay(wl, batches, plan, walU, nil)
	if err != nil {
		return nil, err
	}
	walT, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	traced, err := replay(wl, batches, plan, walT, tr)
	if err != nil {
		return nil, err
	}
	shared, err := engineOnly(wl, plan)
	if err != nil {
		return nil, err
	}
	split, err := engineOnly(wl, nil)
	if err != nil {
		return nil, err
	}
	self := tr.selfTimes()
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	ev := float64(traced.events)
	per := func(d time.Duration, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / n
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	v := map[string]float64{
		"core.graph_ms":                   ms(self[spGraph]),
		"core.expand_ms":                  ms(self[spExpand]),
		"core.reduce_ms":                  ms(self[spReduce]),
		"core.find_ms":                    ms(self[spFind]),
		"core.expanded_edges":             float64(opt.ExpandedEdges),
		"core.plans_considered":           float64(opt.FinderStats.PlansConsidered),
		"core.finder_truncated":           b2f(opt.FinderStats.TimedOut),
		"core.plan_score":                 opt.Score,
		"server.decode_ns_per_event":      per(self[spDecode], ev),
		"exec.apply_ns_per_event":         per(self[spApply], ev),
		"exec.emit_ns_per_window":         per(self[spEmit], float64(traced.emitWindows)),
		"exec.split_apply_ns_per_event":   per(split, float64(len(wl.stream))),
		"exec.share_gain":                 float64(split) / float64(shared),
		"exec.peak_live_states":           float64(traced.peakLive),
		"exec.pruned_starts":              float64(traced.pruned),
		"exec.results_per_kevent":         1000 * float64(traced.results) / ev,
		"exec.share_transitions":          float64(traced.shareTrans),
		"exec.split_transitions":          float64(traced.splitTrans),
		"server.encode_ns_per_result":     per(self[spEncode], float64(traced.results)),
		"server.publish_ns_per_result":    per(self[spPublish], float64(traced.results)),
		"persist.wal_append_ns_per_batch": per(self[spWAL], float64(traced.batches)),
		"persist.wal_bytes_per_event":     float64(traced.walBytes) / ev,
		"trace.overhead_ms":               ms(traced.wall - untraced.wall),
	}
	v["exec.dynamic_apply_ns_per_event"] = 0
	if wl.adaptive {
		v["exec.dynamic_apply_ns_per_event"] = v["exec.apply_ns_per_event"]
	}
	scrapeLayers(v, sat, hi, stats)

	fmt.Fprintf(out, "  traced replay: %d messages, %d events, %d results, wall %.3f ms (untraced %.3f ms), %d spans -> %s\n",
		traced.batches, traced.events, traced.results, ms(traced.wall), ms(untraced.wall), len(tr.spans), spansPath)
	fmt.Fprintf(out, "  self time by layer (largest first):\n")
	for _, l := range layerTable(self) {
		fmt.Fprintf(out, "    %s\n", l)
	}
	// Every per-layer metric is reported on every workload; a layer the
	// workload does not exercise reads 0. The names and units are
	// BENCHMARK.json's, and must match the set measured here exactly.
	if len(specs) != len(v) {
		return nil, fmt.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run measures %d", len(specs), len(v))
	}
	m := make(map[string]metric, len(specs))
	for _, sp := range specs {
		x, ok := v[sp.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names per-layer metric %s, which the traced run does not measure", sp.Name)
		}
		m[sp.Name] = metric{x, sp.Unit}
		fmt.Fprintf(out, "  %-34s %16.4f %s\n", sp.Name, x, sp.Unit)
	}
	return m, nil
}

// scrapeLayers adds to v what the untraced phases measured outside the
// replay: the servers' /metrics after the hi phase (loaded, not
// saturated), process CPU in the saturation phase, and the generator's
// own lateness and CPU. Every key is set on every workload.
func scrapeLayers(v map[string]float64, sat, hi *phaseStats, stats []*phaseStats) {
	var requests, refused int64
	v["loadgen.late_p99_ms"], v["loadgen.cpu_share"] = 0, 0
	for _, ps := range stats {
		requests += ps.requests
		refused += ps.refused
		if len(ps.lateMs) > 0 {
			v["loadgen.late_p99_ms"] = math.Max(v["loadgen.late_p99_ms"], quantile(append([]float64(nil), ps.lateMs...), 0.99))
		}
		v["loadgen.cpu_share"] = math.Max(v["loadgen.cpu_share"], ps.genCPU/ps.wallS)
	}
	v["server.refused_frac"] = float64(refused) / float64(requests+refused)
	v["server.cpu_us_per_event"] = 1e6 * (sat.serverCPU - sat.routerCPU) / float64(sat.events)
	v["cluster.router_cpu_us_per_result"] = 1e6 * sat.routerCPU / float64(max(sat.expected, 1))

	// The client's node is the single server, or the router of a
	// cluster; the cluster.* stages exist only on a router.
	var stages, routerStages map[string]obs.Summary
	var encoded, delivered, walSyncs int64
	var workers []metrics.RouterWorkerStats
	if s := hi.scr.server; s != nil {
		stages, encoded, delivered = s.Stages, s.FanoutFramesEncoded, s.FanoutFramesDelivered
		if s.Durability != nil {
			walSyncs = s.Durability.WalSyncs
		}
	}
	if r := hi.scr.router; r != nil {
		stages, routerStages, encoded, delivered, workers = r.Stages, r.Stages, r.FanoutFramesEncoded, r.FanoutFramesDelivered, r.Workers
	}
	v["server.queue_p50_ms"] = stages["queue"].P50
	v["server.queue_p99_ms"] = stages["queue"].P99
	v["server.apply_p99_ms"] = stages["apply"].P99
	v["server.emit_p99_ms"] = stages["emit"].P99
	v["server.fanout_p99_ms"] = stages["fanout"].P99
	v["server.frames_delivered_per_encoded"] = float64(delivered) / float64(max(encoded, 1))
	v["persist.wal_syncs"] = float64(walSyncs)
	v["cluster.forward_p50_ms"] = routerStages["forward"].P50
	v["cluster.forward_p99_ms"] = routerStages["forward"].P99
	v["cluster.queue_p99_ms"] = routerStages["queue"].P99
	v["cluster.merge_hold_p99_ms"], v["cluster.punct_lag_p99_ms"], v["cluster.retries_429"] = 0, 0, 0
	for _, w := range workers {
		if w.MergeHold != nil {
			v["cluster.merge_hold_p99_ms"] = math.Max(v["cluster.merge_hold_p99_ms"], w.MergeHold.P99)
		}
		if w.PunctLag != nil {
			v["cluster.punct_lag_p99_ms"] = math.Max(v["cluster.punct_lag_p99_ms"], w.PunctLag.P99)
		}
		v["cluster.retries_429"] += float64(w.Retries429)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// provenance stamps a record with what it was measured on.
func provenance(cfg config, rf rateFile, spec rateSpec) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":      cpu,
		"nproc":          machineCPUs(),
		"generator_cpus": runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"server_cpus":    cfg.serverCPUs,
		"go_version":     runtime.Version(),
		"git_commit":     gitCommit(),
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"lo_eps":         spec.LoEPS,
		"hi_eps":         spec.HiEPS,
		"max_eps_ref":    spec.MaxEPS,
		"rates_machine":  rf.Machine,
		"held_out_seed":  rf.HeldOutSeed,
	}
}

// machineCPUs counts the machine's CPUs; runtime.NumCPU counts only
// those this process may run on.
func machineCPUs() int {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.NumCPU()
	}
	return strings.Count(string(data), "\nprocessor") + 1
}

// gitCommit reads HEAD from .git when the tree is a checkout, and
// reports "unknown" otherwise (an exported tree carries no history).
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if c, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(c))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
