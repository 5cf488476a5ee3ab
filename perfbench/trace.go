package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"

	"github.com/sharon-project/sharon/internal/core"
	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/exec"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/query"
	"github.com/sharon-project/sharon/internal/server"
)

// Span names, one per layer boundary the replay calls into.
const (
	spSetup = iota
	spGraph
	spExpand
	spReduce
	spFind
	spBatch
	spDecode
	spWAL
	spApply
	spEmit
	spEncode
	spPublish
	numSpans
)

var spanNames = [numSpans]string{
	"setup", "core.graph", "core.expand", "core.reduce", "core.find",
	"batch", "server.decode", "persist.wal_append", "exec.apply", "exec.emit",
	"server.encode", "server.publish",
}

// span is one timed call: name, start, end (ns since the tracer's
// base), and the index of the span that caused it (-1 for a root).
type span struct {
	name       uint8
	parent     int32
	start, end int64
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced replay runs the same code.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) begin(name int, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, start: int64(time.Since(t.base))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = int64(time.Since(t.base))
	}
}

// selfTimes sums each span name's self time: its duration minus the
// part its children cover (children never outlive their parent).
func (t *tracer) selfTimes() [numSpans]time.Duration {
	var child = make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [numSpans]time.Duration
	for i, s := range t.spans {
		out[s.name] += time.Duration(s.end - s.start - child[i])
	}
	return out
}

// write stores the spans as tab-separated text: name, parent, start, end.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id\tname\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, spanNames[s.name], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// optimize runs the optimizer the way sharond's start-up does (Sharon
// strategy with expansion, unit rates, a 10s budget with the GWMIN
// fallback) in one core.Optimize call, and records a span for each
// phase it reports (graph, expand, reduce, find), laid end to end
// under one set-up span.
func optimize(w query.Workload, tr *tracer) (*core.OptimizerResult, error) {
	rates := core.Rates{}
	for t := range w.Types() {
		rates[t] = 1
	}
	root := tr.begin(spSetup, -1)
	res, err := core.Optimize(w, rates, core.OptimizerOptions{Strategy: core.StrategySharon, Expand: true, Budget: 10 * time.Second})
	tr.end(root)
	if err != nil {
		return nil, err
	}
	at := tr.spans[root].start
	for _, p := range res.Phases {
		name := slices.Index(spanNames[:], "core."+p.Name)
		if name < 0 {
			return nil, fmt.Errorf("optimizer phase %q has no span name", p.Name)
		}
		tr.spans = append(tr.spans, span{name: uint8(name), parent: root, start: at, end: at + int64(p.Elapsed)})
		at += int64(p.Elapsed)
	}
	return res, nil
}

// engine is what the replay needs of the static and adaptive executors.
type engine interface {
	Process(e event.Event) error
	AdvanceWatermark(t int64)
	PeakLiveStates() int64
	PrunedStarts() int64
}

// replayStats is one in-process replay of a phase's messages.
type replayStats struct {
	wall        time.Duration
	events      int64
	batches     int64
	results     int64
	emitWindows int64 // windows closed inside exec.emit spans
	walBytes    int64
	peakLive    int64
	pruned      int64
	shareTrans  int
	splitTrans  int
}

// memConn is an in-memory subscriber connection for Hub.Publish; it
// drops what it is handed.
type memConn struct{}

func (memConn) WriteBurst([][]byte) error { return nil }
func (memConn) WriteHeartbeat() error     { return nil }
func (memConn) WriteTerminal(string)      {}

// replay pushes the phase's pre-encoded messages through each layer's
// public functions in the order sharond's pump does: decode, WAL
// append (durable workloads), engine apply with window emission, result
// encode and publish to one in-memory subscriber. Each message is one
// parent span. With tr nil nothing is recorded.
func replay(wl *workload, batches []batch, plan core.Plan, walDir string, tr *tracer) (replayStats, error) {
	var rs replayStats
	lookup := make(map[string]event.Type)
	for _, n := range wl.typeNames() {
		lookup[n] = wl.reg.Lookup(n)
	}
	byID := make(map[int]*query.Query, len(wl.w))
	for _, q := range wl.w {
		byID[q.ID] = q
	}
	prefix := server.AppendWireTypeTable(server.AppendWireHeader(nil), wl.typeNames())
	var wal *persist.WAL
	if wl.wal {
		var err error
		if wal, err = persist.OpenWAL(walDir, persist.WALOptions{Fsync: persist.FsyncInterval}); err != nil {
			return rs, err
		}
		defer wal.Close()
	}
	hub := server.NewHub(server.HubOptions{Writers: 1})
	defer hub.Shutdown()
	sub, err := hub.Subscribe(server.SubOptions{})
	if err != nil {
		return rs, err
	}
	sub.Start(memConn{})

	var cur int32 = -1 // parent of spans opened inside the engine's callback
	var seq int64
	onResult := func(r exec.Result) {
		s := tr.begin(spEncode, cur)
		payload := server.EncodeResult(byID, seq, r)
		tr.end(s)
		s = tr.begin(spPublish, cur)
		hub.Publish(r.Query, int64(r.Group), seq, payload, 0)
		tr.end(s)
		seq++
	}
	var en engine
	var dyn *exec.Dynamic
	if wl.adaptive {
		rates := core.Rates{}
		for t := range wl.w.Types() {
			rates[t] = 1
		}
		if dyn, err = exec.NewDynamic(wl.w, rates, exec.DynamicConfig{Options: exec.Options{OnResult: onResult}, Adaptive: true}); err != nil {
			return rs, err
		}
		en = dyn
	} else {
		e, err := exec.NewEngine(wl.w, plan, exec.Options{OnResult: onResult})
		if err != nil {
			return rs, err
		}
		en = e
	}

	win := wl.window()
	nextEnd := win.End(win.FirstContaining(wl.stream[0].Time))
	// closeBelow emits every window ending at or before t in one span.
	closeBelow := func(t int64, parent int32) {
		if t < nextEnd {
			return
		}
		n := (t-nextEnd)/win.Slide + 1
		s := tr.begin(spEmit, parent)
		cur = s
		en.AdvanceWatermark(t)
		cur = parent
		tr.end(s)
		nextEnd += n * win.Slide
		rs.emitWindows += n
	}
	b := server.GetBatch()
	defer server.PutBatch(b)
	var body []byte
	start := time.Now()
	for i := range batches {
		m := &batches[i]
		root := tr.begin(spBatch, -1)
		s := tr.begin(spDecode, root)
		b.Events, b.Watermark, b.Unknown = b.Events[:0], -1, 0
		switch {
		case len(m.events) == 0:
			b.Watermark = m.wm
		case wl.ingest == "ndjson":
			err = b.ReadNDJSON(bytes.NewReader(m.body), lookup)
		case wl.ingest == "stream":
			body = append(append(body[:0], prefix...), m.body...)
			err = server.DecodeWireBatch(body, lookup, b)
		default:
			err = server.DecodeWireBatch(m.body, lookup, b)
		}
		tr.end(s)
		if err != nil {
			return rs, fmt.Errorf("replay decode: %w", err)
		}
		if wal != nil {
			s = tr.begin(spWAL, root)
			rec := persist.EncodeBatchRecord(persist.BatchRecord{Events: b.Events, Watermark: b.Watermark})
			_, err = wal.Append(persist.RecBatch, rec)
			tr.end(s)
			if err != nil {
				return rs, err
			}
			rs.walBytes += int64(len(rec))
		}
		s = tr.begin(spApply, root)
		cur = s
		for _, e := range b.Events {
			closeBelow(e.Time-1, s)
			if err := en.Process(e); err != nil {
				return rs, err
			}
			for nextEnd <= e.Time { // closed inside Process
				nextEnd += win.Slide
			}
		}
		if b.Watermark >= 0 {
			closeBelow(b.Watermark, s)
		}
		cur = -1
		tr.end(s)
		tr.end(root)
		rs.events += int64(len(b.Events))
		rs.batches++
	}
	rs.wall = time.Since(start)
	rs.results = seq
	rs.peakLive, rs.pruned = en.PeakLiveStates(), en.PrunedStarts()
	if dyn != nil {
		rs.shareTrans, rs.splitTrans = dyn.ShareTransitions, dyn.SplitTransitions
	}
	return rs, nil
}

// engineOnly times the bare engine over the stream: events through
// Process, then the closing watermark; results are dropped.
func engineOnly(wl *workload, plan core.Plan) (time.Duration, error) {
	en, err := exec.NewEngine(wl.w, plan, exec.Options{OnResult: func(exec.Result) {}})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for _, e := range wl.stream {
		if err := en.Process(e); err != nil {
			return 0, err
		}
	}
	en.AdvanceWatermark(wl.finalWatermark())
	return time.Since(start), nil
}

// layerTable renders self times, largest first.
func layerTable(self [numSpans]time.Duration) []string {
	idx := make([]int, 0, numSpans)
	for i := range self {
		if i != spBatch && i != spSetup && self[i] > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return self[idx[a]] > self[idx[b]] })
	var out []string
	for _, i := range idx {
		out = append(out, fmt.Sprintf("%-20s %10.3f ms", spanNames[i], float64(self[i])/1e6))
	}
	return out
}
