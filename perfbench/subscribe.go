package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/sharon-project/sharon/internal/loadgen"
)

// checker matches every received result against the oracle and stamps
// its arrival. It is owned by the subscription goroutine; the phase
// reads its fields only after that goroutine has ended, and watches the
// atomics while it runs.
type checker struct {
	o        *oracle
	wl       *workload
	arrival  []int64         // per oracle result: arrival (Unix ns), 0 = missing
	winIdx   map[int64]int32 // window -> position in o.wins
	winLeft  []int32         // per window: results still expected
	winDone  []int64         // per window: arrival of its last result
	dups     int64
	wrong    int64
	extra    int64 // results the oracle does not expect
	seqGaps  int64 // breaks in the contiguous sequence numbering
	nextSeq  int64
	terminal string // "eof" or "dropped: ..." if the server ended the stream
	readErr  error

	matched atomic.Int64 // distinct expected results received
	last    atomic.Int64 // latest arrival (Unix ns)
}

func newChecker(o *oracle, wl *workload) *checker {
	c := &checker{
		o: o, wl: wl,
		arrival: make([]int64, len(o.count)),
		winIdx:  make(map[int64]int32, len(o.wins)),
		winLeft: make([]int32, len(o.wins)),
		winDone: make([]int64, len(o.wins)),
		nextSeq: -1,
	}
	for i, w := range o.wins {
		c.winIdx[w] = int32(i)
		c.winLeft[i] = o.perWin[w]
	}
	return c
}

// wireResult is the subset of a result frame the checker reads.
type wireResult struct {
	seq, query, win, end, group int64
	count, value                float64 // value NaN = null
}

// parseResult reads the flat JSON object server.EncodeResult writes,
// without allocating: the subscriber runs on the generator's CPU
// budget, which the server shares. ok is false for frames that are not
// results (control events).
func parseResult(b []byte) (r wireResult, ok bool, err error) {
	r.value = math.NaN()
	seen := 0
	for len(b) > 0 {
		i := bytes.IndexByte(b, '"')
		if i < 0 {
			break
		}
		b = b[i+1:]
		j := bytes.IndexByte(b, '"')
		if j < 0 || j+1 >= len(b) || b[j+1] != ':' {
			return r, false, errMalformed
		}
		name := b[:j]
		b = b[j+2:]
		end := bytes.IndexAny(b, ",}")
		if end < 0 {
			return r, false, errMalformed
		}
		raw := b[:end]
		b = b[end:]
		if string(name) == "event" {
			return r, false, nil
		}
		if string(raw) == "null" {
			continue
		}
		f, perr := parseNumber(raw)
		if perr != nil {
			return r, false, perr
		}
		switch string(name) {
		case "seq":
			r.seq = int64(f)
			seen++
		case "query":
			r.query = int64(f)
			seen++
		case "win":
			r.win = int64(f)
			seen++
		case "end":
			r.end = int64(f)
		case "group":
			r.group = int64(f)
		case "count":
			r.count = f
		case "value":
			r.value = f
		}
	}
	return r, seen == 3, nil
}

var errMalformed = errors.New("malformed result frame")

// parseNumber parses a JSON number; plain integers take a fast path.
func parseNumber(raw []byte) (float64, error) {
	neg := len(raw) > 0 && raw[0] == '-'
	digits := raw
	if neg {
		digits = raw[1:]
	}
	if len(digits) == 0 || len(digits) > 15 {
		return strconv.ParseFloat(string(raw), 64)
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseFloat(string(raw), 64)
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return float64(n), nil
}

// record checks one result frame that arrived at now.
func (c *checker) record(payload []byte, now int64) {
	r, ok, err := parseResult(payload)
	if err != nil {
		c.wrong++
		return
	}
	if !ok {
		return
	}
	if c.nextSeq >= 0 && r.seq != c.nextSeq {
		c.seqGaps++
	}
	c.nextSeq = r.seq + 1
	i, known := c.o.index[rkey{query: int32(r.query), win: r.win, group: r.group}]
	switch {
	case !known:
		c.extra++
	case c.arrival[i] != 0:
		c.dups++
	case r.end != c.wl.window().End(r.win) || !sameNumber(c.o.count[i], r.count) || !sameNumber(c.o.value[i], r.value):
		c.wrong++
		c.arrival[i] = now // answered, if wrongly: not also missing
	default:
		c.arrival[i] = now
		c.matched.Add(1)
		wi := c.winIdx[r.win]
		if c.winLeft[wi]--; c.winLeft[wi] == 0 {
			c.winDone[wi] = now
		}
	}
	c.last.Store(now)
}

// missing counts expected results that never arrived.
func (c *checker) missing() int64 {
	var n int64
	for _, a := range c.arrival {
		if a == 0 {
			n++
		}
	}
	return n
}

// subscription is one open result stream.
type subscription struct {
	closer  io.Closer
	closing atomic.Bool   // set before close: the reader's error is ours
	done    chan struct{} // closed when the reader goroutine has ended
}

// subscribe opens the workload's result subscription on base and
// starts feeding c. It returns once the server has confirmed the
// subscription, so set-up time includes it.
func subscribe(wl *workload, base string, c *checker) (*subscription, error) {
	s := &subscription{done: make(chan struct{})}
	if wl.sub == "ws" {
		conn, _, err := loadgen.DialWS(base+"/subscribe/ws", nil)
		if err != nil {
			return nil, fmt.Errorf("subscribe ws: %w", err)
		}
		first, err := conn.ReadMessage() // {"event":"subscribed"}
		if err != nil || !bytes.Contains(first, []byte("subscribed")) {
			conn.Close()
			return nil, fmt.Errorf("subscribe ws: no confirmation (%v)", err)
		}
		s.closer = conn
		go func() {
			defer close(s.done)
			for {
				msg, err := conn.ReadMessage()
				if err != nil {
					if err != io.EOF && !s.closing.Load() {
						c.readErr = err
					}
					return
				}
				if bytes.HasPrefix(msg, []byte(`{"event":"eof"`)) || bytes.HasPrefix(msg, []byte(`{"event":"dropped"`)) {
					c.terminal = string(msg)
					return
				}
				c.record(msg, time.Now().UnixNano())
			}
		}()
		return s, nil
	}
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := client.Get(base + "/subscribe")
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if line, err := br.ReadSlice('\n'); err != nil || !bytes.HasPrefix(line, []byte(": subscribed")) {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: no confirmation (%v)", err)
	}
	s.closer = resp.Body
	go func() {
		defer close(s.done)
		var event []byte
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				if err != io.EOF && !s.closing.Load() {
					c.readErr = err
				}
				return
			}
			line = bytes.TrimRight(line, "\n")
			switch {
			case bytes.HasPrefix(line, []byte("event: ")):
				event = append(event[:0], line[len("event: "):]...)
			case bytes.HasPrefix(line, []byte("data: ")):
				if len(event) > 0 {
					if string(event) == "eof" || string(event) == "dropped" {
						c.terminal = string(event) + " " + string(line[len("data: "):])
						return
					}
					continue
				}
				c.record(line[len("data: "):], time.Now().UnixNano())
			case len(line) == 0:
				event = event[:0]
			}
		}
	}()
	return s, nil
}

// close ends the subscription and waits for its reader.
func (s *subscription) close() {
	s.closing.Store(true)
	_ = s.closer.Close()
	<-s.done
}
