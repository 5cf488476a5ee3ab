// Package loadgen drives a sharond server over loopback (or any
// network) and measures end-to-end serving performance: sustained
// ingest throughput and the ingest-to-emit latency between posting the
// batch that closes a window and receiving that window's first result
// on a subscription. cmd/sharon-load and the sharon-bench "server"
// experiment share this driver.
//
// The driver is also the crash-recovery verifier: it can resume a
// previous run's event stream from an index (-start-index), resume the
// subscription from a sequence cursor (/subscribe?after=N), tolerate a
// server death mid-run (reporting exactly how far the stream got), and
// it always checks the received sequence numbers for gaps and
// duplicates — across a kill -9 + restart, the concatenation of the two
// runs' frames must be one contiguous, duplicate-free result stream.
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	sharon "github.com/sharon-project/sharon"
	"github.com/sharon-project/sharon/internal/obs"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

// Config parameterizes one load run. The generated stream is a pure
// function of the event index: event i carries tick streamTick(i)
// (i+1 unless BurstRatio reshapes the tick spacing), type
// Types[i%len(Types)], a hash-mixed group key, and val i%7+1 — so a
// resumed run (StartIndex > 0) regenerates exactly the events the
// interrupted run would have sent next.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Events is the number of events to send.
	Events int
	// StartIndex offsets the generated stream: the run sends events
	// [StartIndex, StartIndex+Events). Use a crashed run's NextIndex to
	// resume its stream.
	StartIndex int
	// Batch is the events-per-POST batch size (default 512).
	Batch int
	// RatePerSec throttles sending to about this many events per second
	// (0 = as fast as the server accepts). The crash drills use it to
	// keep the stream in flight long enough to kill the server mid-run.
	RatePerSec float64
	// BurstRatio, when > 1, modulates the generated stream's density in
	// STREAM time (ticks) as a square wave, so a burst-adaptive server
	// sees real arrival-rate swings: each BurstPeriod-event period opens
	// with a valley half whose events sit BurstRatio ticks apart,
	// followed by a burst half at one tick per event — the burst phase
	// arrives BurstRatio× denser. Every event still gets a distinct,
	// strictly increasing tick, and the mapping is a pure function of
	// the event index, so resumed runs regenerate the stream exactly.
	// Wall-clock throttling (RatePerSec) is independent. The bursty CI
	// smoke drives sharond -adaptive with this and asserts the
	// share/split transition counters move.
	BurstRatio int
	// BurstPeriod is the square wave's full period in events (default
	// 8192 when BurstRatio is set). Each half phase must span enough
	// ticks to cover the server's check interval (the window slide)
	// several times over, or the detector never confirms a transition.
	BurstPeriod int
	// Groups is the number of distinct group keys (default 16).
	Groups int
	// Types is the event type cycle (default A, B, C, D — matching
	// sharond's default workload).
	Types []string
	// Within and Slide are the served workload's window parameters in
	// ticks (default 4000/1000); the driver needs them to know which
	// batch closes which window for the latency measurement.
	Within, Slide int64
	// Resume subscribes with ?after=After, replaying retained results
	// after that sequence number before the live stream continues
	// (After = -1 replays everything retained).
	Resume bool
	After  int64
	// SkipWatermark leaves the stream open: no final watermark is
	// posted and the quiesce wait is skipped (crash-drill phase runs).
	SkipWatermark bool
	// TolerateAbort makes a mid-run server death a reported outcome
	// (Report.Aborted, NextIndex) instead of an error.
	TolerateAbort bool
	// FramesPath, when set, appends every received result payload as
	// one line to this file — the byte evidence the crash-recovery
	// verification diffs against an uninterrupted run.
	FramesPath string
	// ExtraEndpoints lists additional servers whose result streams are
	// subscribed alongside BaseURL's, each with its own seq-gap/dup
	// check. The cluster drills use it to watch a router's workers (each
	// worker emits its own contiguous local sequence) while driving the
	// router. An extra endpoint's stream ending early is reported
	// (EndpointReport.Closed), not an error — the cluster kill drill
	// shoots one worker on purpose.
	ExtraEndpoints []string
	// QuiesceTimeout bounds the wait for in-flight results after the
	// final watermark (default 30s).
	QuiesceTimeout time.Duration
	// QuiesceStill is how long the subscription must stay silent before
	// the run is considered complete (default 500ms). Cluster drills
	// raise it past the router's dead-worker detection + rebalance span
	// so a mid-drill stall is not mistaken for the end of the stream.
	QuiesceStill time.Duration
	// Subscribers sizes an extra swarm of unfiltered subscriptions held
	// open for the run (0 = none), each seq-checked independently — the
	// client side of the broadcast fan-out tier. SubTransport selects
	// their transport: "sse" (default) or "ws".
	Subscribers  int
	SubTransport string
	// Wire selects the ingest codec: "ndjson" (default) posts NDJSON
	// batches, "binary" posts the same batches in the binary batch
	// format (Content-Type application/x-sharon-batch), and "stream"
	// sends every batch as a CRC frame down one long-lived
	// /ingest/stream connection with per-batch acks.
	Wire string
	// Progress receives per-phase log lines; nil discards them.
	Progress func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Batch <= 0 {
		c.Batch = 512
	}
	if c.Groups <= 0 {
		c.Groups = 16
	}
	if len(c.Types) == 0 {
		c.Types = []string{"A", "B", "C", "D"}
	}
	if c.Within <= 0 {
		c.Within = 4000
	}
	if c.Slide <= 0 {
		c.Slide = 1000
	}
	if c.QuiesceTimeout <= 0 {
		c.QuiesceTimeout = 30 * time.Second
	}
	if c.QuiesceStill <= 0 {
		c.QuiesceStill = 500 * time.Millisecond
	}
	if c.Wire == "" {
		c.Wire = "ndjson"
	}
	if c.SubTransport == "" {
		c.SubTransport = "sse"
	}
	if c.BurstRatio > 1 && c.BurstPeriod < 2 {
		c.BurstPeriod = 8192
	}
	if c.Progress == nil {
		c.Progress = func(string, ...any) {}
	}
}

// streamTick maps event index i to its tick. The steady mapping is one
// tick per event (tick i+1); with BurstRatio set it becomes a square
// wave in stream time — each BurstPeriod-event period opens with a
// valley half whose events are BurstRatio ticks apart, then a burst
// half at one tick per event. Strictly increasing in i, and pure like
// the steady mapping, so resumed runs regenerate the stream exactly.
func (c *Config) streamTick(i int) int64 {
	if c.BurstRatio <= 1 {
		return int64(i) + 1
	}
	period := int64(c.BurstPeriod)
	half := period / 2
	ratio := int64(c.BurstRatio)
	ticksPerPeriod := half*ratio + (period - half)
	p, r := int64(i)/period, int64(i)%period
	t := p * ticksPerPeriod
	if r < half {
		return t + (r+1)*ratio
	}
	return t + half*ratio + (r - half) + 1
}

// Report is the outcome of one load run.
type Report struct {
	// Events/Batches are the accepted totals; Rejected429 counts
	// backpressure refusals of batches and of the final watermark (each
	// retried until accepted).
	Events      int64 `json:"events"`
	Batches     int64 `json:"batches"`
	Rejected429 int64 `json:"rejected_429"`
	// ElapsedNs spans first POST to last accepted POST; EventsPerSec is
	// the sustained ingest throughput over it.
	ElapsedNs    int64   `json:"elapsed_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Results is the number of pushed results the subscription
	// received; Windows the number of distinct window ends among them.
	Results int64 `json:"results"`
	Windows int64 `json:"windows"`
	// LatencyP50Ms through LatencyMaxMs summarize ingest-to-emit
	// latency: from posting the batch (or watermark) that closes a
	// window to receiving that window's first result. Percentiles are
	// exact (computed from the full sorted sample set, one sample per
	// window); LatencyBuckets is the log-bucketed histogram of the same
	// samples for cross-checking against the server's stage histograms.
	LatencyP50Ms   float64         `json:"latency_p50_ms"`
	LatencyP90Ms   float64         `json:"latency_p90_ms"`
	LatencyP99Ms   float64         `json:"latency_p99_ms"`
	LatencyP999Ms  float64         `json:"latency_p999_ms"`
	LatencyMaxMs   float64         `json:"latency_max_ms"`
	LatencyBuckets []LatencyBucket `json:"latency_buckets,omitempty"`
	// FirstSeq/LastSeq bound the received emission sequence numbers
	// (-1 when nothing arrived); SeqGaps/SeqDups count violations of
	// strict seq contiguity on the subscription — both must be zero on
	// a healthy (or correctly resumed) stream.
	FirstSeq int64 `json:"first_seq"`
	LastSeq  int64 `json:"last_seq"`
	SeqGaps  int64 `json:"seq_gaps"`
	SeqDups  int64 `json:"seq_dups"`
	// Aborted reports a tolerated mid-run server death; NextIndex is
	// the index of the first event NOT known to be accepted — resume
	// the stream there (the server's late-event filter deduplicates the
	// overlap if the in-flight batch did land).
	Aborted   bool `json:"aborted"`
	NextIndex int  `json:"next_index"`
	// Terminal is the primary subscription's explicit close frame
	// ("eof", or "dropped: <reason>"); empty when the client closed
	// first (the normal end of a completed run).
	Terminal string `json:"terminal,omitempty"`
	// Endpoints reports the extra per-endpoint subscriptions
	// (Config.ExtraEndpoints), each seq-checked independently.
	Endpoints []EndpointReport `json:"endpoints,omitempty"`
	// Swarm reports the subscriber swarm (Config.Subscribers > 0).
	Swarm *SwarmReport `json:"swarm,omitempty"`
}

// LatencyBucket is one non-empty bucket of the client-side
// ingest-to-emit histogram: Count samples at or below UpperMs.
type LatencyBucket struct {
	UpperMs float64 `json:"upper_ms"`
	Count   int64   `json:"count"`
}

// EndpointReport is one extra endpoint's subscription outcome.
type EndpointReport struct {
	URL      string `json:"url"`
	Results  int64  `json:"results"`
	FirstSeq int64  `json:"first_seq"`
	LastSeq  int64  `json:"last_seq"`
	SeqGaps  int64  `json:"seq_gaps"`
	SeqDups  int64  `json:"seq_dups"`
	// Closed reports the stream ended (or never opened) before the run
	// finished — expected for a worker killed mid-drill. Terminal holds
	// the server's explicit close frame when one arrived ("eof" or
	// "dropped: <reason>"); a Closed stream with no Terminal broke
	// without the server ending it.
	Closed   bool   `json:"closed"`
	Terminal string `json:"terminal,omitempty"`
}

// wireResult is the slice of the result wire format the driver reads.
type wireResult struct {
	Seq int64 `json:"seq"`
	End int64 `json:"end"`
}

// extraSub is one extra endpoint's subscription state.
type extraSub struct {
	url  string
	done chan struct{}

	mu       sync.Mutex
	results  int64
	firstSeq int64
	lastSeq  int64
	prevSeq  int64
	gaps     int64
	dups     int64
	closed   bool
	terminal string
}

// watchEndpoint subscribes to one extra endpoint and seq-checks its
// stream until ctx ends or the stream closes.
func watchEndpoint(ctx context.Context, url string) *extraSub {
	ex := &extraSub{url: url, done: make(chan struct{}), firstSeq: -1, lastSeq: -1, prevSeq: -1}
	go func() {
		defer close(ex.done)
		req, err := http.NewRequestWithContext(ctx, "GET", url+"/subscribe", nil)
		if err != nil {
			ex.mu.Lock()
			ex.closed = true
			ex.mu.Unlock()
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
			ex.mu.Lock()
			ex.closed = true
			ex.mu.Unlock()
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		// Track the SSE event type: terminal frames (event: eof/error)
		// carry data lines too and must not be counted as results.
		evtype := ""
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				evtype = ""
				continue
			}
			if strings.HasPrefix(line, "event: ") {
				evtype = line[len("event: "):]
				continue
			}
			if evtype != "" {
				// Terminal frames carry the explicit close reason that
				// used to be inferred from connection state.
				if term := terminalFrame(evtype, line); term != "" {
					ex.mu.Lock()
					ex.terminal = term
					ex.mu.Unlock()
				}
				continue
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var wr wireResult
			if json.Unmarshal([]byte(line[len("data: "):]), &wr) != nil {
				continue
			}
			ex.mu.Lock()
			ex.results++
			switch {
			case wr.Seq == ex.prevSeq+1:
				ex.prevSeq = wr.Seq
			case wr.Seq > ex.prevSeq+1:
				if ex.prevSeq >= 0 {
					ex.gaps++
				}
				ex.prevSeq = wr.Seq
			default:
				ex.dups++
			}
			if ex.firstSeq < 0 {
				ex.firstSeq = wr.Seq
			}
			if wr.Seq > ex.lastSeq {
				ex.lastSeq = wr.Seq
			}
			ex.mu.Unlock()
		}
		if ctx.Err() == nil {
			ex.mu.Lock()
			ex.closed = true // stream ended before the run did
			ex.mu.Unlock()
		}
	}()
	return ex
}

func (ex *extraSub) report() EndpointReport {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	return EndpointReport{
		URL:      ex.url,
		Results:  ex.results,
		FirstSeq: ex.firstSeq,
		LastSeq:  ex.lastSeq,
		SeqGaps:  ex.gaps,
		SeqDups:  ex.dups,
		Closed:   ex.closed,
		Terminal: ex.terminal,
	}
}

// terminalFrame maps one SSE terminal frame (event type + data line) to
// its report form: "eof", or "dropped: <reason>". Other event types
// (wm, adopted punctuation) are not terminals and map to "".
func terminalFrame(evtype, line string) string {
	if !strings.HasPrefix(line, "data: ") {
		return ""
	}
	switch evtype {
	case "eof":
		return "eof"
	case "dropped":
		var d struct {
			Reason string `json:"reason"`
		}
		_ = json.Unmarshal([]byte(line[len("data: "):]), &d)
		return "dropped: " + d.Reason
	}
	return ""
}

// wireStream is one streaming-ingest connection: batch frames out,
// acks in, over a single long-lived full-duplex POST.
type wireStream struct {
	pw     *io.PipeWriter
	body   io.ReadCloser
	buf    []byte
	ackBuf []byte
}

// dialWireStream opens /ingest/stream and performs the handshake:
// wire header + type-table frame out, 200 headers back.
func dialWireStream(baseURL string, prefix []byte) (*wireStream, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", baseURL+"/ingest/stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", server.BatchContentType)
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	// The handshake write races Do on purpose: the server reads the
	// wire header from the request body before responding 200.
	if _, err := pw.Write(prefix); err != nil {
		return nil, fmt.Errorf("stream handshake: %w", err)
	}
	select {
	case resp := <-respc:
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			pw.Close()
			return nil, fmt.Errorf("stream: status %d: %s", resp.StatusCode, b)
		}
		return &wireStream{pw: pw, body: resp.Body}, nil
	case err := <-errc:
		return nil, fmt.Errorf("stream: %w", err)
	case <-time.After(10 * time.Second):
		pw.Close()
		return nil, fmt.Errorf("stream: no response headers")
	}
}

// send writes one batch frame and waits for its ack (the ping-pong
// that makes streaming backpressure explicit).
func (s *wireStream) send(events []sharon.Event, wm int64) (server.WireAck, error) {
	s.buf = server.AppendWireBatch(s.buf[:0], events, wm)
	if _, err := s.pw.Write(s.buf); err != nil {
		return server.WireAck{}, err
	}
	body, buf, err := persist.ReadFrame(s.body, 1<<20, s.ackBuf)
	s.ackBuf = buf
	if err != nil {
		return server.WireAck{}, err
	}
	return server.DecodeWireAck(body)
}

func (s *wireStream) Close() {
	s.pw.Close()
	s.body.Close()
}

// Run executes one load run against a serving sharond.
func Run(cfg Config) (Report, error) {
	cfg.fill()
	var rep Report
	rep.FirstSeq, rep.LastSeq = -1, -1
	rep.NextIndex = cfg.StartIndex
	switch cfg.Wire {
	case "ndjson", "binary", "stream":
	default:
		return rep, fmt.Errorf("unknown wire mode %q (want ndjson, binary, or stream)", cfg.Wire)
	}

	var framesFile *os.File
	var framesW *bufio.Writer
	if cfg.FramesPath != "" {
		f, err := os.OpenFile(cfg.FramesPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return rep, err
		}
		framesFile, framesW = f, bufio.NewWriter(f)
		defer framesFile.Close()
	}

	// Subscribe first: results for windows closed mid-run must be
	// observed, not replayed.
	subURL := cfg.BaseURL + "/subscribe"
	if cfg.Resume {
		subURL = fmt.Sprintf("%s?after=%d", subURL, cfg.After)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", subURL, nil)
	if err != nil {
		return rep, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return rep, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return rep, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	var mu sync.Mutex
	results := int64(0)
	terminal := ""
	prevSeq := int64(-1)
	if cfg.Resume {
		prevSeq = cfg.After
	}
	firstSeq, lastSeq := int64(-1), int64(-1)
	var gaps, dups int64
	recvAt := make(map[int64]time.Time) // window end -> first result arrival
	subReady := make(chan struct{})
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		evtype := ""
		for sc.Scan() {
			line := sc.Text()
			if line == ": subscribed" {
				close(subReady)
				continue
			}
			if line == "" {
				evtype = ""
				continue
			}
			if strings.HasPrefix(line, "event: ") {
				evtype = line[len("event: "):]
				continue
			}
			// Only default-type frames are results; terminal frames
			// (event: eof/dropped) carry data lines that are not — they
			// name the close reason explicitly.
			if evtype != "" {
				if term := terminalFrame(evtype, line); term != "" {
					mu.Lock()
					terminal = term
					mu.Unlock()
				}
				continue
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			payload := line[len("data: "):]
			var wr wireResult
			if json.Unmarshal([]byte(payload), &wr) != nil {
				continue
			}
			now := time.Now()
			mu.Lock()
			results++
			// Seq contiguity check: the server's emission sequence is
			// dense, so any deviation is a lost or duplicated result.
			switch {
			case wr.Seq == prevSeq+1:
				prevSeq = wr.Seq
			case wr.Seq > prevSeq+1:
				if prevSeq >= 0 || cfg.Resume {
					gaps++
				}
				prevSeq = wr.Seq
			default:
				dups++
			}
			if firstSeq < 0 {
				firstSeq = wr.Seq
			}
			if wr.Seq > lastSeq {
				lastSeq = wr.Seq
			}
			if framesW != nil {
				framesW.WriteString(payload)
				framesW.WriteByte('\n')
			}
			if _, ok := recvAt[wr.End]; !ok {
				recvAt[wr.End] = now
			}
			mu.Unlock()
		}
	}()
	select {
	case <-subReady:
	case <-time.After(10 * time.Second):
		return rep, fmt.Errorf("subscription never became ready")
	}

	// Extra endpoints: independent subscriptions, each seq-checked on
	// its own local sequence. Opened after the primary so the primary's
	// failure modes stay unchanged.
	extras := make([]*extraSub, 0, len(cfg.ExtraEndpoints))
	for _, url := range cfg.ExtraEndpoints {
		extras = append(extras, watchEndpoint(ctx, strings.TrimSuffix(url, "/")))
	}

	// Subscriber swarm: N extra broadcast-tier subscriptions ramping up
	// while the send loop runs.
	var sw *swarm
	if cfg.Subscribers > 0 {
		if cfg.SubTransport != "sse" && cfg.SubTransport != "ws" {
			return rep, fmt.Errorf("unknown subscriber transport %q (want sse or ws)", cfg.SubTransport)
		}
		cfg.Progress("starting %d %s swarm subscribers", cfg.Subscribers, cfg.SubTransport)
		sw = startSwarm(ctx, cfg.BaseURL, cfg.Subscribers, cfg.SubTransport)
	}

	// Send loop: stamp each window end when the batch closing it is
	// posted, then POST the batch (retrying 429s). abort marks a
	// tolerated server death.
	sentAt := make(map[int64]time.Time)
	startTick := cfg.streamTick(cfg.StartIndex - 1) // tick before the first event (StartIndex with the steady mapping)
	nextEnd := (startTick/cfg.Slide)*cfg.Slide + cfg.Within
	var buf bytes.Buffer
	// Binary modes accumulate events instead of NDJSON text; the type
	// table lists cfg.Types in order, so event i's local id is simply
	// its cycle position + 1. Both buffers recycle across batches.
	binary := cfg.Wire != "ndjson"
	var (
		events    []sharon.Event
		binPrefix []byte
		binBuf    []byte
		stream    *wireStream
	)
	if binary {
		binPrefix = server.AppendWireTypeTable(server.AppendWireHeader(nil), cfg.Types)
	}
	if cfg.Wire == "stream" {
		s, err := dialWireStream(cfg.BaseURL, binPrefix)
		if err != nil {
			return rep, err
		}
		defer s.Close()
		stream = s
	}
	started := time.Now()
	var lastAccept time.Time
	tick := startTick
	aborted := false
	batchStart := cfg.StartIndex
	// postStream sends the pending batch as one stream frame and waits
	// for the ack: busy acks re-send the frame (the streaming face of a
	// 429), draining and dead connections end a tolerant run.
	postStream := func() error {
		for {
			ack, err := stream.send(events, -1)
			if err != nil {
				if cfg.TolerateAbort {
					aborted = true
					return nil
				}
				return fmt.Errorf("stream: %w", err)
			}
			switch ack.Status {
			case server.WireAckOK:
				rep.Batches++
				lastAccept = time.Now()
				events = events[:0]
				return nil
			case server.WireAckBusy:
				rep.Rejected429++
				time.Sleep(20 * time.Millisecond)
			case server.WireAckDraining:
				if cfg.TolerateAbort {
					aborted = true
					return nil
				}
				return fmt.Errorf("stream: server draining")
			default:
				return fmt.Errorf("stream: ack status %d", ack.Status)
			}
		}
	}
	post := func(maxTime int64) error {
		for nextEnd <= maxTime {
			sentAt[nextEnd] = time.Now()
			nextEnd += cfg.Slide
		}
		if stream != nil {
			return postStream()
		}
		body, contentType := buf.Bytes(), "application/x-ndjson"
		if binary {
			binBuf = append(binBuf[:0], binPrefix...)
			binBuf = server.AppendWireBatch(binBuf, events, -1)
			body, contentType = binBuf, server.BatchContentType
		}
		for {
			r, err := http.Post(cfg.BaseURL+"/ingest", contentType, bytes.NewReader(body))
			if err != nil {
				if cfg.TolerateAbort {
					aborted = true
					return nil
				}
				return err
			}
			r.Body.Close()
			switch r.StatusCode {
			case http.StatusAccepted, http.StatusOK:
				rep.Batches++
				lastAccept = time.Now()
				buf.Reset()
				events = events[:0]
				return nil
			case http.StatusTooManyRequests:
				rep.Rejected429++
				time.Sleep(20 * time.Millisecond)
			case http.StatusServiceUnavailable:
				// Draining or recovering: with abort tolerance this is
				// the end of the run, not an error.
				if cfg.TolerateAbort {
					aborted = true
					return nil
				}
				return fmt.Errorf("ingest: status %d", r.StatusCode)
			default:
				return fmt.Errorf("ingest: status %d", r.StatusCode)
			}
		}
	}
	last := cfg.StartIndex + cfg.Events
	for i := cfg.StartIndex; i < last; i++ {
		tick = cfg.streamTick(i)
		// The key is hash-mixed so it never correlates with the type
		// cycle (a plain i%Groups with Groups divisible by len(Types)
		// would pin each group to one type and match nothing).
		key := (uint64(i) * 0x9E3779B97F4A7C15 >> 33) % uint64(cfg.Groups)
		if binary {
			events = append(events, sharon.Event{
				Time: tick,
				Type: sharon.Type(i%len(cfg.Types) + 1),
				Key:  sharon.GroupKey(key),
				Val:  float64(i%7 + 1),
			})
		} else {
			fmt.Fprintf(&buf, `{"type":%q,"time":%d,"key":%d,"val":%d}`+"\n",
				cfg.Types[i%len(cfg.Types)], tick, key, i%7+1)
		}
		if (i+1-cfg.StartIndex)%cfg.Batch == 0 || i == last-1 {
			if err := post(tick); err != nil {
				return rep, err
			}
			if aborted {
				break
			}
			batchStart = i + 1
			if cfg.RatePerSec > 0 {
				ahead := time.Duration(float64(i+1-cfg.StartIndex)/cfg.RatePerSec*float64(time.Second)) - time.Since(started)
				if ahead > 0 {
					time.Sleep(ahead)
				}
			}
		}
	}
	rep.Aborted = aborted
	rep.NextIndex = batchStart
	rep.Events = int64(batchStart - cfg.StartIndex)
	rep.ElapsedNs = lastAccept.Sub(started).Nanoseconds()
	if rep.ElapsedNs > 0 {
		rep.EventsPerSec = float64(rep.Events) / (float64(rep.ElapsedNs) / 1e9)
	}
	if aborted {
		cfg.Progress("server went away mid-run: %d events accepted in %d batches; resume at index %d",
			rep.Events, rep.Batches, rep.NextIndex)
	} else {
		cfg.Progress("sent %d events in %d batches (%.0f ev/s, %d backpressure retries)",
			rep.Events, rep.Batches, rep.EventsPerSec, rep.Rejected429)
	}

	if !cfg.SkipWatermark && !aborted {
		// Close the tail with a watermark and stamp the remaining ends.
		finalWM := (tick/cfg.Slide)*cfg.Slide + cfg.Within
		for nextEnd <= finalWM {
			sentAt[nextEnd] = time.Now()
			nextEnd += cfg.Slide
		}
		// A full ingest queue refuses the watermark like a batch: retry.
		for {
			wm, err := http.Post(cfg.BaseURL+"/watermark", "application/json",
				strings.NewReader(fmt.Sprintf(`{"watermark":%d}`, finalWM)))
			if err != nil {
				return rep, err
			}
			wm.Body.Close()
			if wm.StatusCode == http.StatusAccepted {
				break
			}
			if wm.StatusCode != http.StatusTooManyRequests {
				return rep, fmt.Errorf("watermark: status %d", wm.StatusCode)
			}
			rep.Rejected429++
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Quiesce: wait until the subscription stops receiving. An aborted
	// run waits briefly for frames already in flight, then gives up.
	deadline := time.Now().Add(cfg.QuiesceTimeout)
	if aborted {
		deadline = time.Now().Add(2 * time.Second)
	}
	lastCount, lastChange := int64(-1), time.Now()
	for {
		mu.Lock()
		n := results
		mu.Unlock()
		if n != lastCount {
			lastCount, lastChange = n, time.Now()
		} else if n > 0 && time.Since(lastChange) > cfg.QuiesceStill {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-subDone
	for _, ex := range extras {
		<-ex.done
		rep.Endpoints = append(rep.Endpoints, ex.report())
	}
	if sw != nil {
		r := sw.wait()
		rep.Swarm = &r
		cfg.Progress("swarm: %d/%d connected, %d frames, %d gaps, %d dups (eof %d, dropped slow %d / filtered %d, unexplained %d)",
			r.Connected, r.Subscribers, r.Results, r.SeqGaps, r.SeqDups, r.CleanEOF, r.DroppedSlow, r.DroppedFiltered, r.Unexplained)
	}

	// Every subscriber goroutine has been joined above, but take the
	// lock for the final reads anyway — and release it before the frame
	// flush and progress callback, which do I/O.
	mu.Lock()
	rep.Results = results
	rep.Terminal = terminal
	rep.FirstSeq, rep.LastSeq = firstSeq, lastSeq
	rep.SeqGaps, rep.SeqDups = gaps, dups
	var lat []float64
	for end, at := range recvAt {
		if sent, ok := sentAt[end]; ok {
			lat = append(lat, at.Sub(sent).Seconds()*1000)
		}
	}
	mu.Unlock()
	if framesW != nil {
		if err := framesW.Flush(); err != nil {
			return rep, err
		}
	}
	rep.Windows = int64(len(lat))
	if len(lat) > 0 {
		sort.Float64s(lat)
		pick := func(pm int) float64 { return lat[min(len(lat)-1, len(lat)*pm/1000)] }
		rep.LatencyP50Ms = pick(500)
		rep.LatencyP90Ms = pick(900)
		rep.LatencyP99Ms = pick(990)
		rep.LatencyP999Ms = pick(999)
		rep.LatencyMaxMs = lat[len(lat)-1]
		var h obs.Histogram
		for _, ms := range lat {
			h.Record(int64(ms * 1e6)) // ms -> ns, same unit the server stages use
		}
		for _, b := range h.Snapshot().Buckets {
			rep.LatencyBuckets = append(rep.LatencyBuckets, LatencyBucket{
				UpperMs: float64(b.Upper) / 1e6,
				Count:   b.Count,
			})
		}
	}
	cfg.Progress("received %d results over %d windows, seq [%d, %d], %d gaps, %d dups (p50 %.2fms, p99 %.2fms ingest-to-emit)",
		rep.Results, rep.Windows, rep.FirstSeq, rep.LastSeq, rep.SeqGaps, rep.SeqDups, rep.LatencyP50Ms, rep.LatencyP99Ms)
	return rep, nil
}
