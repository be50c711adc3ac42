package kwsbench

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// caller sends requests of a plan to one server over one keep-alive
// connection and reads each body to its last byte.
type caller struct {
	base   string
	plan   *Plan
	client *http.Client
	buf    bytes.Buffer
}

func newCaller(base string, p *Plan) *caller {
	return &caller{base: base, plan: p, client: newClient()}
}

func (c *caller) close() { c.client.CloseIdleConnections() }

// do sends req, with trace=1 on a /debug read when traced, and returns the
// status, the body (valid until the next call) and the latency from send
// to the last body byte.
func (c *caller) do(req Request, traced bool) (int, []byte, time.Duration, error) {
	var hr *http.Request
	var err error
	if req.Kind == Write {
		body, _ := json.Marshal(map[string]string{"sql": req.SQL}) // a string map always marshals
		hr, err = http.NewRequest(http.MethodPost, c.base+"/write", bytes.NewReader(body))
	} else {
		path := c.plan.paths[req.Query]
		if traced && req.Kind == Debug {
			path += "&trace=1"
		}
		hr, err = http.NewRequest(http.MethodGet, c.base+path, nil)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	c.buf.Reset()
	start := time.Now()
	resp, err := c.client.Do(hr)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(start), err
}

// window is what a closed-loop run measured.
type window struct {
	// reads and writes hold client-side latencies in milliseconds.
	reads, writes []float64
	elapsed       time.Duration
}

func (w window) requests() int { return len(w.reads) + len(w.writes) }

func (w *window) add(o window) {
	w.reads = append(w.reads, o.reads...)
	w.writes = append(w.writes, o.writes...)
	w.elapsed += o.elapsed
}

// loop is a closed loop over one plan: each caller sends request p.At(i)
// for the next unsent position i and waits for the reply before sending
// again. Positions and connections carry over from one run call to the
// next.
type loop struct {
	plan    *Plan
	chk     *checker
	callers []*caller
	next    atomic.Int64
}

func newLoop(base string, p *Plan, chk *checker, clients int) *loop {
	l := &loop{plan: p, chk: chk}
	for k := 0; k < clients; k++ {
		l.callers = append(l.callers, newCaller(base, p))
	}
	return l
}

func (l *loop) close() {
	for _, c := range l.callers {
		c.close()
	}
}

// run drives the loop until position to (when positive) or until the
// deadline (when non-zero) has passed, and returns what it measured.
func (l *loop) run(to int, deadline time.Time) window {
	var mu sync.Mutex
	var w window
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range l.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			var reads, writes []float64
			for deadline.IsZero() || time.Now().Before(deadline) {
				i := int(l.next.Add(1) - 1)
				if to > 0 && i >= to {
					l.next.Add(-1)
					break
				}
				req := l.plan.At(i)
				status, body, d, err := c.do(req, false)
				l.chk.observe(req, status, body, err)
				ms := float64(d) / float64(time.Millisecond)
				if req.Kind == Write {
					writes = append(writes, ms)
				} else {
					reads = append(reads, ms)
				}
			}
			mu.Lock()
			w.reads = append(w.reads, reads...)
			w.writes = append(w.writes, writes...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	return w
}

// get fetches a small endpoint such as /metrics.
func get(base, path string) (string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}
