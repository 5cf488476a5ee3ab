package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/sharon-project/sharon/internal/event"
	"github.com/sharon-project/sharon/internal/persist"
	"github.com/sharon-project/sharon/internal/server"
)

// batch is one pre-encoded ingest message. The last batch of a phase
// carries no events, only the closing watermark.
type batch struct {
	events []event.Event
	wm     int64         // -1 = none
	body   []byte        // stream frame, or one-shot request body
	due    time.Duration // open-loop send time, from the phase start
	maxT   int64         // stream position once this batch is applied
}

// encodeBatches cuts the stream into batches and encodes each for the
// workload's ingest path. The last message is the closing watermark.
func encodeBatches(wl *workload) []batch {
	var out []batch
	prefix := server.AppendWireTypeTable(server.AppendWireHeader(nil), wl.typeNames())
	for i := 0; i < len(wl.stream); i += wl.batch {
		evs := wl.stream[i:min(i+wl.batch, len(wl.stream))]
		out = append(out, batch{events: evs, wm: -1, maxT: evs[len(evs)-1].Time, body: encodeBody(wl, prefix, evs, -1)})
	}
	wm := wl.finalWatermark()
	return append(out, batch{wm: wm, maxT: wm, body: encodeBody(wl, prefix, nil, wm)})
}

// schedule sets each message's open-loop due time so that the phase
// sends the whole stream at rate events/s (0 = closed loop, no
// schedule). Due times follow the stream's ticks, so a bursty stream
// arrives in bursts; the closing watermark is due one batch interval
// after the last batch.
func schedule(wl *workload, batches []batch, rate float64) {
	if rate <= 0 {
		for i := range batches {
			batches[i].due = 0
		}
		return
	}
	t0 := wl.stream[0].Time
	span := float64(max(wl.stream[len(wl.stream)-1].Time-t0, 1))
	total := float64(len(wl.stream)) / rate * float64(time.Second)
	n := len(batches) - 1
	for i := range batches[:n] {
		batches[i].due = time.Duration(float64(batches[i].events[0].Time-t0) / span * total)
	}
	batches[n].due = batches[n-1].due + time.Duration(total/float64(n))
}

// encodeBody renders one batch in the workload's wire format. A
// watermark-only message on a POST path is the /watermark body.
func encodeBody(wl *workload, prefix []byte, evs []event.Event, wm int64) []byte {
	switch {
	case wl.ingest == "stream":
		return server.AppendWireBatch(nil, evs, wm)
	case len(evs) == 0:
		return fmt.Appendf(nil, `{"watermark":%d}`, wm)
	case wl.ingest == "binary":
		return server.AppendWireBatch(append([]byte(nil), prefix...), evs, wm)
	}
	var b []byte
	for _, e := range evs {
		b = append(b, `{"type":`...)
		b = strconv.AppendQuote(b, wl.reg.Name(e.Type))
		b = append(b, `,"time":`...)
		b = strconv.AppendInt(b, e.Time, 10)
		b = append(b, `,"key":`...)
		b = strconv.AppendInt(b, int64(e.Key), 10)
		b = append(b, `,"val":`...)
		b = strconv.AppendFloat(b, e.Val, 'g', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}

// errRefused is a backpressure refusal: a 429 or a busy ack. The
// caller retries the same message.
var errRefused = errors.New("refused (backpressure)")

// ingester sends pre-encoded batches over exactly one connection.
type ingester interface {
	// send delivers one batch; errRefused asks for a retry.
	send(b *batch) error
	close()
}

// postIngester sends one-shot POSTs over a single keep-alive
// connection: /ingest for event batches, /watermark for the closing
// watermark.
type postIngester struct {
	base, ctype string
	client      *http.Client
}

func newPostIngester(base string, binary bool) *postIngester {
	ctype := "application/x-ndjson"
	if binary {
		ctype = server.BatchContentType
	}
	return &postIngester{base: base, ctype: ctype, client: oneConnClient()}
}

func (p *postIngester) send(b *batch) error {
	url, ctype := p.base+"/ingest", p.ctype
	if len(b.events) == 0 {
		url, ctype = p.base+"/watermark", "application/json"
	}
	resp, err := p.client.Post(url, ctype, bytes.NewReader(b.body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		return nil
	case http.StatusTooManyRequests:
		return errRefused
	}
	return fmt.Errorf("%s: status %d", url, resp.StatusCode)
}

func (p *postIngester) close() { p.client.CloseIdleConnections() }

// streamIngester sends batch frames down one /ingest/stream connection
// and waits for each frame's ack before the next: a busy ack must be
// answered by re-sending that frame before any later one.
type streamIngester struct {
	pw     *io.PipeWriter
	body   io.ReadCloser
	cancel context.CancelFunc
	ackBuf []byte
}

func dialStream(base string, prefix []byte) (*streamIngester, error) {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/ingest/stream", pr)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", server.BatchContentType)
	type result struct {
		resp *http.Response
		err  error
	}
	done := make(chan result, 1)
	client := oneConnClient()
	go func() {
		resp, err := client.Do(req)
		done <- result{resp, err}
	}()
	// The server reads the header before it answers, so the handshake
	// write must not wait for the response.
	if _, err := pw.Write(prefix); err != nil {
		cancel()
		return nil, fmt.Errorf("stream handshake: %w", err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			cancel()
			return nil, fmt.Errorf("stream: %w", r.err)
		}
		if r.resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(r.resp.Body)
			r.resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("stream: status %d: %s", r.resp.StatusCode, msg)
		}
		return &streamIngester{pw: pw, body: r.resp.Body, cancel: cancel}, nil
	case <-time.After(10 * time.Second):
		cancel()
		return nil, fmt.Errorf("stream: no response headers")
	}
}

func (s *streamIngester) send(b *batch) error {
	if _, err := s.pw.Write(b.body); err != nil {
		return err
	}
	body, buf, err := persist.ReadFrame(s.body, 1<<20, s.ackBuf)
	s.ackBuf = buf
	if err != nil {
		return fmt.Errorf("stream ack: %w", err)
	}
	ack, err := server.DecodeWireAck(body)
	if err != nil {
		return err
	}
	switch ack.Status {
	case server.WireAckOK:
		return nil
	case server.WireAckBusy:
		return errRefused
	}
	return fmt.Errorf("stream ack status %d", ack.Status)
}

func (s *streamIngester) close() {
	s.pw.Close()
	s.body.Close()
	s.cancel()
}

// dialIngester opens the workload's ingest connection.
func dialIngester(wl *workload, base string) (ingester, error) {
	if wl.ingest == "stream" {
		return dialStream(base, server.AppendWireTypeTable(server.AppendWireHeader(nil), wl.typeNames()))
	}
	return newPostIngester(base, wl.ingest == "binary"), nil
}

// oneConnClient is an HTTP client that holds at most one connection.
func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}
