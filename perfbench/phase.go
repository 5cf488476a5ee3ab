package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// phase describes one measured phase against fresh server processes.
type phase struct {
	name string
	rate float64 // open-loop events/s; 0 = closed loop (saturation)
}

// phaseStats is everything one phase measured.
type phaseStats struct {
	phase
	setupS    float64
	events    int
	requests  int64 // ingest and watermark messages attempted
	refused   int64 // backpressure refusals (each retried)
	reqFailed int64 // messages that failed for any other reason
	wallS     float64
	drainS    float64   // first send to last expected result
	chunkEPS  []float64 // saturation: events/s of each chunk, drain included
	winLatMs  []float64 // per window with results; +Inf = missed
	lateMs    []float64 // per message: how far behind schedule it went out
	expected  int64
	matched   int64
	missing   int64
	dups      int64
	wrong     int64
	extra     int64
	seqGaps   int64
	terminal  string
	scr       scrape
	scrapeErr error
	rssMB     float64
	serverCPU float64 // all server processes
	routerCPU float64 // router only (cluster)
	genCPU    float64 // this process
}

// failures counts what the phase got wrong against the oracle, plus
// messages that failed for reasons other than backpressure. A phase
// that received no result at all fails even if nothing was expected:
// a stream the server silently dropped must not read as a pass.
func (ps *phaseStats) failures() int64 {
	n := ps.missing + ps.dups + ps.wrong + ps.extra + ps.seqGaps + ps.reqFailed
	if ps.matched == 0 {
		n++
	}
	return n
}

// runOptions tune phases for tests.
type runOptions struct {
	// replay pre-sends the whole stream to the server before the
	// measured phase, so every measured event arrives late: the fault
	// a tick-restart replay causes, which must read as a failure.
	replay bool
	// quiet is how long the phase waits without progress for missing
	// results before giving up.
	quiet time.Duration
}

// satChunks is how many consecutive chunks the saturation phase sends
// its stream in. Each is drained before the next starts, and times one
// max_eps sample; the best of them is reported. A disturbance from
// outside (another process, a virtual machine's neighbours) slows some
// chunks of a run but rarely all of them, so the best chunk follows the
// server's own speed more closely than the whole phase does.
const satChunks = 8

// runPhase starts fresh servers, subscribes, sends every batch (on the
// open-loop schedule, or back to back in satChunks drained chunks),
// waits for the expected results, scrapes the servers and stops them.
func runPhase(wl *workload, o *oracle, batches []batch, ph phase, cfg config) (*phaseStats, error) {
	opt := cfg.opt
	ps := &phaseStats{phase: ph, events: len(wl.stream), expected: int64(len(o.count))}
	c := newChecker(o, wl)
	var present func(*deployment) error
	if opt.replay {
		present = func(d *deployment) error { return presend(wl, d, batches) }
	}
	d, sub, setupS, err := setUp(wl, c, cfg, present)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	ps.setupS = setupS
	ing, err := dialIngester(wl, d.front.base)
	if err != nil {
		sub.close()
		return nil, err
	}
	// How long a wait for missing results goes on without progress.
	quiet := opt.quiet
	if quiet <= 0 {
		quiet = 3 * time.Second
	}

	// Open-loop phases send all batches as one chunk. A chunk is done
	// when every result of the windows its messages close has arrived.
	chunkEnd, chunkWant := []int{len(batches)}, []int64{ps.expected}
	if ph.rate == 0 {
		chunkEnd, chunkWant = chunks(wl, o, batches, satChunks)
	}
	cpu0, router0, gen0 := d.cpuByRole(""), d.cpuByRole("router"), selfCPU()
	refusedAt := make([]bool, len(batches))
	start := time.Now()
	first := 0
	for k, end := range chunkEnd {
		chunkStart, chunkEvents := time.Now(), 0
		for i := first; i < end; i++ {
			b := &batches[i]
			if ph.rate > 0 {
				if wait := time.Until(start.Add(b.due)); wait > 0 {
					time.Sleep(wait)
				}
				ps.lateMs = append(ps.lateMs, float64(time.Since(start.Add(b.due)))/1e6)
			}
			chunkEvents += len(b.events)
			ps.requests++
			backoff := time.Millisecond
			for {
				err := ing.send(b)
				if err == nil {
					break
				}
				if !errors.Is(err, errRefused) {
					ps.reqFailed++
					break
				}
				ps.refused++
				refusedAt[i] = true
				time.Sleep(backoff)
				backoff = min(2*backoff, 32*time.Millisecond)
			}
			if ps.reqFailed > 0 {
				// A dead ingest connection fails every message still unsent.
				ps.reqFailed += int64(len(batches) - i - 1)
				break
			}
		}
		if ps.reqFailed > 0 {
			break
		}
		c.waitFor(chunkWant[k], quiet)
		if last := c.last.Load(); ph.rate == 0 && last > chunkStart.UnixNano() {
			ps.chunkEPS = append(ps.chunkEPS, float64(chunkEvents)/(float64(last-chunkStart.UnixNano())/1e9))
		}
		first = end
	}
	sent := time.Now()
	ps.wallS = time.Since(start).Seconds()
	ps.serverCPU = d.cpuByRole("") - cpu0
	ps.routerCPU = d.cpuByRole("router") - router0
	ps.genCPU = selfCPU() - gen0
	ing.close()
	sub.close()
	ps.scr, ps.scrapeErr = d.scrape()
	ps.rssMB = d.peakRSSMB()

	ps.matched = c.matched.Load()
	ps.missing, ps.dups, ps.wrong, ps.extra, ps.seqGaps = c.missing(), c.dups, c.wrong, c.extra, c.seqGaps
	ps.terminal = c.terminal
	if c.readErr != nil && ps.terminal == "" {
		ps.terminal = "read error: " + c.readErr.Error()
	}
	if last := c.last.Load(); last > 0 {
		ps.drainS = float64(last-start.UnixNano()) / 1e9
	}
	if ps.drainS <= 0 {
		ps.drainS = sent.Sub(start).Seconds()
	}

	if ph.rate > 0 {
		ps.winLatMs = windowLatencies(wl, o, c, batches, refusedAt, start)
	}
	return ps, nil
}

// waitFor waits until want results have matched, giving up after quiet
// without progress.
func (c *checker) waitFor(want int64, quiet time.Duration) {
	lastProgress, lastMatched := time.Now(), int64(-1)
	for c.matched.Load() < want && time.Since(lastProgress) < quiet {
		if m := c.matched.Load(); m != lastMatched {
			lastMatched, lastProgress = m, time.Now()
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// closingBatch is the index of the first message whose events (or
// watermark) reach a window's end, which closes it; len(batches) if
// none does.
func closingBatch(wl *workload, batches []batch, w int64) int {
	end := wl.window().End(w)
	return sort.Search(len(batches), func(i int) bool { return batches[i].maxT >= end })
}

// chunks cuts the messages into n runs of about equal length. For each
// it gives the index one past its last message, and the number of
// results expected once it has drained: those of every window a
// message of this chunk or an earlier one closes.
func chunks(wl *workload, o *oracle, batches []batch, n int) (end []int, want []int64) {
	n = max(1, min(n, len(batches)))
	for k := 1; k <= n; k++ {
		end = append(end, k*len(batches)/n)
	}
	want = make([]int64, n)
	for _, w := range o.wins {
		bi := closingBatch(wl, batches, w)
		k := sort.SearchInts(end, bi+1)
		if k < n {
			want[k] += int64(o.perWin[w])
		}
	}
	for k := 1; k < n; k++ {
		want[k] += want[k-1]
	}
	return end, want
}

// setUp starts fresh servers and opens the subscription, and returns
// the time that took: from spawning the first process to the confirmed
// subscription. before, when set, runs between the two and is not
// timed.
func setUp(wl *workload, c *checker, cfg config, before func(*deployment) error) (*deployment, *subscription, float64, error) {
	t0 := time.Now()
	d, err := startDeployment(wl, cfg.sharond, cfg.serverCPUs, cfg.scratch)
	if err != nil {
		return nil, nil, 0, err
	}
	var untimed time.Duration
	if before != nil {
		t := time.Now()
		if err := before(d); err != nil {
			d.stop()
			return nil, nil, 0, err
		}
		untimed = time.Since(t)
	}
	sub, err := subscribe(wl, d.front.base, c)
	if err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, sub, (time.Since(t0) - untimed).Seconds(), nil
}

// Set-up samples: besides the phases' own starts, a run times extra
// ones (start, subscribe, stop) in setupSlots slots spread through the
// run, before, between and after the phases, until it holds
// setupSamples of them or a slot has spent its share of setupBudget.
// Cheap starts, where process start and scheduling noise are most of
// the figure, get a median over about fifty; costly ones get at least
// one extra start per slot.
const (
	setupSamples = 51
	setupSlots   = 4
	setupBudget  = 4 * time.Second
)

// extraSetups fills slot (0-based) of a run's set-up samples.
func extraSetups(wl *workload, o *oracle, cfg config, slot int, setups []float64) ([]float64, error) {
	target := (slot + 1) * setupSamples / setupSlots
	start := time.Now()
	for len(setups) < target && time.Since(start) < setupBudget/setupSlots {
		d, sub, s, err := setUp(wl, newChecker(o, wl), cfg, nil)
		if err != nil {
			return nil, err
		}
		sub.close()
		d.stop()
		setups = append(setups, s)
	}
	return setups, nil
}

// windowLatencies gives each window with results one sample: from the
// due time of the message that closes it to the arrival of its last
// expected result. A window closed by a refused message, or missing a
// result, missed every limit (+Inf).
func windowLatencies(wl *workload, o *oracle, c *checker, batches []batch, refusedAt []bool, start time.Time) []float64 {
	out := make([]float64, len(o.wins))
	for wi, w := range o.wins {
		bi := closingBatch(wl, batches, w)
		if bi == len(batches) || refusedAt[bi] || c.winDone[wi] == 0 {
			out[wi] = math.Inf(1)
			continue
		}
		due := start.Add(batches[bi].due).UnixNano()
		out[wi] = float64(c.winDone[wi]-due) / 1e6
	}
	return out
}

// presend delivers the whole stream to the server and waits until it
// has applied it, leaving a server whose watermark is past every event.
func presend(wl *workload, d *deployment, batches []batch) error {
	ing, err := dialIngester(wl, d.front.base)
	if err != nil {
		return err
	}
	defer ing.close()
	for i := range batches {
		for {
			err := ing.send(&batches[i])
			if err == nil {
				break
			}
			if !errors.Is(err, errRefused) {
				return fmt.Errorf("presend: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	wm := wl.finalWatermark()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		s, err := d.scrape()
		if err != nil {
			return err
		}
		if (s.server != nil && s.server.Watermark >= wm && s.server.IngestQueueDepth == 0) ||
			(s.router != nil && s.router.MergedWatermark >= wm) {
			return nil
		}
	}
	return fmt.Errorf("presend: server did not apply the stream within 1m")
}

// selfCPU is this process's user+system CPU time in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
