package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	sharon "github.com/sharon-project/sharon"
)

// testQueries is a uniform three-query workload with one sharable
// segment (C,D), exercising the shared plan over the wire.
var testQueries = []string{
	"RETURN COUNT(*) PATTERN SEQ(A, B, C, D) WHERE [k] WITHIN 4s SLIDE 1s",
	"RETURN COUNT(*) PATTERN SEQ(C, D) WHERE [k] WITHIN 4s SLIDE 1s",
	"RETURN COUNT(*) PATTERN SEQ(A, B) WHERE [k] WITHIN 4s SLIDE 1s",
}

// rawEvent is one generated event before rendering (to NDJSON for the
// server, to sharon.Event for the in-process reference).
type rawEvent struct {
	Name string
	Time int64
	Key  int64
	Val  float64
}

func randomRaw(n int, seed int64) []rawEvent {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"A", "B", "C", "D"}
	out := make([]rawEvent, n)
	t := int64(0)
	for i := range out {
		t += 1 + rng.Int63n(3)
		out[i] = rawEvent{
			Name: names[rng.Intn(len(names))],
			Time: t,
			Key:  rng.Int63n(7),
			Val:  float64(rng.Intn(9) + 1),
		}
	}
	return out
}

func ndjson(t *testing.T, events []rawEvent) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, e := range events {
		if err := enc.Encode(IngestLine{Type: e.Name, Time: e.Time, Key: e.Key, Val: e.Val}); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// inProcessReference replays the identical input through the public
// API with the same canonical encoder: parse the same query texts, feed
// the same events, advance the same final watermark — the byte
// sequence a correct server must push.
func inProcessReference(t *testing.T, queries []string, raw []rawEvent, finalWM int64, par int) []string {
	t.Helper()
	reg := sharon.NewRegistry()
	w := make(sharon.Workload, len(queries))
	qs := make(map[int]*sharon.Query, len(queries))
	for i, text := range queries {
		q, err := sharon.ParseQuery(text, reg)
		if err != nil {
			t.Fatal(err)
		}
		q.ID = i
		w[i] = q
		qs[i] = q
	}
	events := make([]sharon.Event, len(raw))
	for i, e := range raw {
		tp := reg.Lookup(e.Name)
		if tp == sharon.NoType {
			t.Fatalf("type %q not in workload alphabet", e.Name)
		}
		events[i] = sharon.Event{Time: e.Time, Type: tp, Key: sharon.GroupKey(e.Key), Val: e.Val}
	}
	var mu sync.Mutex
	var out []string
	var seq int64
	sys, err := sharon.NewSystem(w, sharon.Options{
		Parallelism: par,
		OnResult: func(r sharon.Result) {
			mu.Lock()
			out = append(out, string(EncodeResult(qs, seq, r)))
			seq++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.FeedBatch(events); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceWatermark(finalWM)
	// Flush adds nothing (the watermark covered every window holding
	// events) but synchronizes the parallel merge before reading out.
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]string(nil), out...)
}

// sseClient subscribes to ts and collects data frames until closed.
type sseClient struct {
	mu     sync.Mutex
	data   []string
	events []string // named frames: eof, error
	ready  chan struct{}
	done   chan struct{}
	cancel context.CancelFunc
}

func subscribeSSE(t *testing.T, baseURL, params string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // a failing test must not leave the stream holding its server open
	c := &sseClient{ready: make(chan struct{}), done: make(chan struct{}), cancel: cancel}
	req, err := http.NewRequestWithContext(ctx, "GET", baseURL+"/subscribe"+params, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe: status %d: %s", resp.StatusCode, body)
	}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == ": subscribed":
				close(c.ready)
			case strings.HasPrefix(line, "data: "):
				c.mu.Lock()
				c.data = append(c.data, strings.TrimPrefix(line, "data: "))
				c.mu.Unlock()
			case strings.HasPrefix(line, "event: "):
				c.mu.Lock()
				c.events = append(c.events, strings.TrimPrefix(line, "event: "))
				c.mu.Unlock()
			}
		}
	}()
	select {
	case <-c.ready:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription never became ready")
	}
	return c
}

func (c *sseClient) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.data)
}

func (c *sseClient) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.data...)
}

func (c *sseClient) sawEvent(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.events {
		if e == name {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func doReq(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// TestLoopbackEquivalence is the end-to-end acceptance test: an
// identical randomized stream fed to (a) the in-process engine and (b)
// sharond over loopback with a subscribed client yields byte-identical
// result sequences — with the engine sequential and parallel — and the
// server pushes results as windows close, before any terminal
// flush/watermark.
func TestLoopbackEquivalence(t *testing.T) {
	raw := randomRaw(6000, 42)
	last := raw[len(raw)-1].Time
	// Final watermark: the end of the last window containing an event
	// (WITHIN 4s SLIDE 1s at 1000 ticks/s).
	finalWM := (last/1000)*1000 + 4000
	for _, tc := range []struct {
		par      int
		adaptive bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		par, name := tc.par, fmt.Sprintf("parallelism=%d", tc.par)
		if tc.adaptive {
			name = "adaptive," + name
		}
		t.Run(name, func(t *testing.T) {
			// The reference is always the static system: the adaptive
			// runtime must push the identical stream.
			want := inProcessReference(t, testQueries, raw, finalWM, par)
			if len(want) == 0 {
				t.Fatal("reference produced no results")
			}
			_, ts := newTestServer(t, Config{Queries: testQueries, Parallelism: par, Adaptive: tc.adaptive})
			sub := subscribeSSE(t, ts.URL, "")

			// First half in uneven batches, crossing window closes.
			half := len(raw) / 2
			for i := 0; i < half; {
				j := min(i+137, half)
				status, body := postJSON(t, ts.URL+"/ingest", ndjson(t, raw[i:j]))
				if status != http.StatusAccepted {
					t.Fatalf("ingest: status %d: %s", status, body)
				}
				i = j
			}
			if par == 1 {
				// Sequential path: event-time progress alone must have
				// pushed the already-closed windows — no flush, no
				// watermark. (The parallel path may still be batching.)
				waitFor(t, "mid-stream push", func() bool { return sub.count() > 0 })
			}
			// Second half, then watermark punctuation closes the tail.
			status, body := postJSON(t, ts.URL+"/ingest", ndjson(t, raw[half:]))
			if status != http.StatusAccepted {
				t.Fatalf("ingest: status %d: %s", status, body)
			}
			status, body = postJSON(t, ts.URL+"/watermark", fmt.Sprintf(`{"watermark":%d}`, finalWM))
			if status != http.StatusAccepted {
				t.Fatalf("watermark: status %d: %s", status, body)
			}

			waitFor(t, "all results", func() bool { return sub.count() >= len(want) })
			got := sub.snapshot()
			if len(got) != len(want) {
				t.Fatalf("server pushed %d results, reference %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("result %d:\n server   %s\n inproc   %s", i, got[i], want[i])
				}
			}
			sub.cancel()
		})
	}
}

// TestQueryFilterSubscription checks ?query= delivers exactly that
// query's results.
func TestQueryFilterSubscription(t *testing.T) {
	raw := randomRaw(2000, 7)
	finalWM := (raw[len(raw)-1].Time/1000)*1000 + 4000
	_, ts := newTestServer(t, Config{Queries: testQueries})
	all := subscribeSSE(t, ts.URL, "")
	only1 := subscribeSSE(t, ts.URL, "?query=1")
	postJSON(t, ts.URL+"/ingest", ndjson(t, raw))
	postJSON(t, ts.URL+"/watermark", fmt.Sprintf(`{"watermark":%d}`, finalWM))
	waitFor(t, "results", func() bool { return all.count() > 0 })

	// Count query-1 results in the full stream, then wait for the
	// filtered subscriber to catch up.
	time.Sleep(50 * time.Millisecond)
	var want1 int
	for _, d := range all.snapshot() {
		var r WireResult
		if err := json.Unmarshal([]byte(d), &r); err != nil {
			t.Fatal(err)
		}
		if r.Query == 1 {
			want1++
		}
	}
	if want1 == 0 {
		t.Fatal("no query-1 results in stream")
	}
	waitFor(t, "filtered results", func() bool { return only1.count() >= want1 })
	for _, d := range only1.snapshot() {
		var r WireResult
		if err := json.Unmarshal([]byte(d), &r); err != nil {
			t.Fatal(err)
		}
		if r.Query != 1 {
			t.Fatalf("filtered subscription got query %d", r.Query)
		}
	}
	all.cancel()
	only1.cancel()
}

// TestOversizedBatchRejected pins the request-size limit: a body over
// MaxBatchBytes is refused with 413 before the engine sees anything.
func TestOversizedBatchRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Queries: testQueries, MaxBatchBytes: 1024})
	var b bytes.Buffer
	for i := int64(1); b.Len() <= 4096; i++ {
		fmt.Fprintf(&b, `{"type":"A","time":%d,"key":1,"val":1}`+"\n", i)
	}
	status, body := postJSON(t, ts.URL+"/ingest", b.String())
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (%s), want 413", status, body)
	}
	status, body = doReq(t, "GET", ts.URL+"/metrics", "")
	if status != http.StatusOK || !strings.Contains(body, `"rejected_oversize": 1`) {
		t.Fatalf("metrics after oversize: %d %s", status, body)
	}
}

// TestBackpressure429 pins the bounded-queue policy: with the pump
// stalled and the queue full, ingestion is refused with 429 and
// Retry-After rather than buffered without bound.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	_, ts := newTestServer(t, Config{Queries: testQueries, IngestQueue: 2, pumpGate: gate})
	defer close(gate)

	line := func(i int) string { return fmt.Sprintf(`{"type":"A","time":%d,"key":1,"val":1}`+"\n", i) }
	// One batch may be held by the stalled pump; two fill the queue.
	for i := 1; i <= 3; i++ {
		status, body := postJSON(t, ts.URL+"/ingest", line(i))
		if status != http.StatusAccepted {
			t.Fatalf("warm-up batch %d: status %d: %s", i, status, body)
		}
	}
	req, err := http.NewRequest("POST", ts.URL+"/ingest", strings.NewReader(line(4)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestLateEventsDropped pins the cross-batch ordering policy: events
// at or behind the watermark are dropped and counted, not an error.
func TestLateEventsDropped(t *testing.T) {
	_, ts := newTestServer(t, Config{Queries: testQueries})
	postJSON(t, ts.URL+"/ingest", `{"type":"A","time":100,"key":1,"val":1}`)
	postJSON(t, ts.URL+"/ingest", `{"type":"B","time":50,"key":1,"val":1}`)
	waitFor(t, "late drop", func() bool {
		_, body := doReq(t, "GET", ts.URL+"/metrics", "")
		return strings.Contains(body, `"events_dropped_late": 1`)
	})
}

// TestDrainFlushesAndEOF: draining closes every open window into live
// subscriptions and terminates them with an eof frame; ingestion is
// refused afterwards.
func TestDrainFlushesAndEOF(t *testing.T) {
	s, ts := newTestServer(t, Config{Queries: testQueries})
	sub := subscribeSSE(t, ts.URL, "")
	// Events within the first window: nothing closed, nothing pushed.
	postJSON(t, ts.URL+"/ingest",
		`{"type":"A","time":100,"key":1,"val":1}`+"\n"+
			`{"type":"B","time":200,"key":1,"val":1}`+"\n")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "eof", func() bool { return sub.sawEvent("eof") })
	if sub.count() == 0 {
		t.Fatal("drain did not flush the open windows to the subscriber")
	}
	status, _ := postJSON(t, ts.URL+"/ingest", `{"type":"A","time":300,"key":1,"val":1}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("ingest while drained: status %d, want 503", status)
	}
	status, _ = doReq(t, "GET", ts.URL+"/healthz", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d, want 503", status)
	}
}

// TestParseBatchContract unit-tests the NDJSON framing: in-batch
// ordering, watermark floors, unknown-type drops, malformed lines.
func TestParseBatchContract(t *testing.T) {
	lookup := map[string]sharon.Type{"A": 1, "B": 2}
	parse := func(s string) (Batch, error) { return ParseBatch(strings.NewReader(s), lookup) }

	b, err := parse(`{"type":"A","time":1}` + "\n" + `{"type":"X","time":2}` + "\n" + `{"watermark":10}` + "\n" + `{"type":"B","time":11}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != 2 || b.Unknown != 1 || b.Watermark != 10 {
		t.Fatalf("batch = %+v", b)
	}
	if _, err := parse(`{"type":"A","time":5}` + "\n" + `{"type":"B","time":5}`); err == nil {
		t.Fatal("equal timestamps accepted")
	}
	if _, err := parse(`{"watermark":10}` + "\n" + `{"type":"A","time":9}`); err == nil {
		t.Fatal("event behind in-batch watermark accepted")
	}
	if _, err := parse(`{"type":"A"`); err == nil {
		t.Fatal("malformed line accepted")
	}
	if _, err := parse(`{"time":3}`); err == nil {
		t.Fatal("missing type accepted")
	}
}

// memConn is an in-memory SubConn for hub unit tests: it records every
// burst buffer and the terminal reason, and can park WriteBurst on a
// gate to simulate a consumer that stopped reading.
type memConn struct {
	mu       sync.Mutex
	frames   []string
	terminal chan string
	gate     chan struct{} // non-nil: first WriteBurst parks until closed
}

func newMemConn(gate chan struct{}) *memConn {
	return &memConn{terminal: make(chan string, 1), gate: gate}
}

func (c *memConn) WriteBurst(bufs [][]byte) error {
	c.mu.Lock()
	g := c.gate
	c.gate = nil
	c.mu.Unlock()
	if g != nil {
		<-g
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range bufs {
		c.frames = append(c.frames, string(b))
	}
	return nil
}

func (c *memConn) WriteHeartbeat() error { return nil }

func (c *memConn) WriteTerminal(reason string) {
	select {
	case c.terminal <- reason:
	default:
	}
}

func (c *memConn) got() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.frames...)
}

// TestHubSlowConsumer unit-tests the slow-consumer policy: a subscriber
// whose cursor is overrun by log retention is terminated with an
// explicit `dropped` frame naming the reason, and only that subscriber.
func TestHubSlowConsumer(t *testing.T) {
	h := NewHub(HubOptions{Writers: 2, Retain: 2})
	gate := make(chan struct{})
	slowConn, fastConn := newMemConn(gate), newMemConn(nil)

	slow, err := h.Subscribe(SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow.Start(slowConn)
	fast, err := h.Subscribe(SubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fast.Start(fastConn)

	// Overrun the slow subscriber: with Retain 2, ten results trim far
	// past any cursor parked behind the gate. Pacing each publish against
	// the fast subscriber's delivery keeps ITS cursor at the tail, so
	// only the gated subscriber can be overrun.
	for i := 0; i < 10; i++ {
		h.Publish(0, 0, int64(i), []byte(`{"seq":`+strconv.Itoa(i)+`}`), 0)
		n := i + 1
		waitFor(t, "fast delivery", func() bool { return len(fastConn.got()) == n })
	}
	close(gate)

	waitFor(t, "slow consumer dropped", func() bool { return h.SlowDrops() == 1 })
	select {
	case reason := <-slowConn.terminal:
		if reason != ReasonSlowConsumer {
			t.Fatalf("terminal reason = %q, want %q", reason, ReasonSlowConsumer)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no terminal frame on the dropped subscriber")
	}
	<-slow.Done()
	if got := slow.Reason(); got != ReasonSlowConsumer {
		t.Fatalf("slow.Reason() = %q, want %q", got, ReasonSlowConsumer)
	}
	if h.Count() != 1 {
		t.Fatalf("live subscribers = %d, want 1", h.Count())
	}

	// The fast subscriber is untouched: clean drain to eof on shutdown.
	waitFor(t, "fast subscriber drained", func() bool { return len(fastConn.got()) == 10 })
	h.Shutdown()
	select {
	case reason := <-fastConn.terminal:
		if reason != "" {
			t.Fatalf("fast terminal reason = %q, want clean eof", reason)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no eof on the fast subscriber after shutdown")
	}
	for i, fr := range fastConn.got() {
		want := "id: " + strconv.Itoa(i) + "\ndata: {\"seq\":" + strconv.Itoa(i) + "}\n\n"
		if fr != want {
			t.Fatalf("fast frame %d = %q, want %q", i, fr, want)
		}
	}
	if h.Encoded() != 10 {
		t.Fatalf("encoded = %d, want 10 (one per publish, not per subscriber)", h.Encoded())
	}
}

// TestHubFilteredResumeDrop pins the distinct drop reason for filtered
// subscribers: a narrowed stream is not seq-contiguous, so the client
// cannot detect the loss itself and the terminal frame must say so.
func TestHubFilteredResumeDrop(t *testing.T) {
	h := NewHub(HubOptions{Writers: 1, Retain: 2})
	gate := make(chan struct{})
	conn := newMemConn(gate)
	sub, err := h.Subscribe(SubOptions{Filter: SubFilter{Queries: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	sub.Start(conn)
	for i := 0; i < 10; i++ {
		h.Publish(0, 0, int64(i), []byte(`{"seq":`+strconv.Itoa(i)+`}`), 0)
	}
	close(gate)
	waitFor(t, "filtered subscriber dropped", func() bool { return h.FilteredDrops() == 1 })
	<-sub.Done()
	if got := sub.Reason(); got != ReasonFilteredResume {
		t.Fatalf("Reason() = %q, want %q", got, ReasonFilteredResume)
	}
	h.Shutdown()
}
