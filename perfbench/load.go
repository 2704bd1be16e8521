package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's concurrency: one process, at most
// two connections, matching the two cores of the machine the rates
// were sized on.
const clients = 2

// requestTimeout bounds one request; a request that fails or times out
// is charged this latency, so it misses every latency limit.
const requestTimeout = 10 * time.Second

// client posts pre-encoded requests over at most `clients` loopback
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// result is one request's outcome. Times are offsets from the phase
// start: due is when the schedule said to send (equal to sent in a
// closed loop), sent when the request went out, done when the last
// response byte was read. The body is kept raw and parsed only after
// the timed phase.
type result struct {
	due, sent, done time.Duration
	status          int
	body            []byte
	err             error
}

func (r *result) ok() bool { return r.err == nil && r.status == http.StatusOK }

// latencyMS is the request's latency from its due time, or the request
// timeout when it failed.
func (r *result) latencyMS() float64 {
	if !r.ok() {
		return float64(requestTimeout) / 1e6
	}
	return float64(r.done-r.due) / 1e6
}

func (c *client) send(o *op, start time.Time, r *result) {
	r.sent = time.Since(start)
	req, err := http.NewRequest(http.MethodPost, c.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		r.done = time.Since(start)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		r.done = time.Since(start)
		return
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Since(start)
	r.status = resp.StatusCode
}

// acks lets a delete wait until the upsert it removes was answered.
type acks map[int]chan struct{}

func newAcks(ops []op) acks {
	a := acks{}
	for _, o := range ops {
		if o.dep >= 0 {
			a[o.dep] = make(chan struct{})
		}
	}
	return a
}

func (a acks) wait(o *op) {
	if o.dep >= 0 {
		<-a[o.dep]
	}
}

func (a acks) done(i int) {
	if ch, ok := a[i]; ok {
		close(ch)
	}
}

// closedLoop runs `clients` workers, each sending its next op as soon as
// the previous one returns, until d has passed or ops run out. It
// returns the results of the ops sent, in op order, and the time from
// the start to the last answer.
func (c *client) closedLoop(ops []op, d time.Duration) ([]result, time.Duration) {
	res := make([]result, len(ops))
	ak := newAcks(ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// The deadline is checked before an op is taken, so
				// every op taken is sent and a delete never waits on
				// an upsert that will not go out.
				if d > 0 && time.Since(start) >= d {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				ak.wait(&ops[i])
				c.send(&ops[i], start, &res[i])
				res[i].due = res[i].sent
				ak.done(i)
			}
		}()
	}
	wg.Wait()
	res = res[:min(int(next.Load()), len(ops))]
	var last time.Duration
	for _, r := range res {
		last = max(last, r.done)
	}
	return res, last
}

// phase is an open-loop phase's results and its start, the time base
// of their offsets.
type phase struct {
	start time.Time
	res   []result
}

// openLoop sends ops[i] at offset due[i] seconds from the start, over
// `clients` workers taking ops in order. A request is timed from when
// it was due, so a stall also charges the requests queued behind it.
func (c *client) openLoop(ops []op, due []float64) phase {
	res := make([]result, len(ops))
	ak := newAcks(ops)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				at := time.Duration(due[i] * float64(time.Second))
				if wait := at - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				ak.wait(&ops[i])
				res[i].due = at
				c.send(&ops[i], start, &res[i])
				ak.done(i)
			}
		}()
	}
	wg.Wait()
	return phase{start: start, res: res}
}

// warm forces a GC and then runs ops through a closed loop, so the
// phase that follows starts with warm caches and connections and no
// garbage from set-up.
func (c *client) warm(ops []op) []result {
	runtime.GC()
	res, _ := c.closedLoop(ops, warmTime)
	runtime.GC()
	return res
}
