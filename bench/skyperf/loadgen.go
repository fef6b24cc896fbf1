package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skyloader/internal/httpserve"
	"skyloader/internal/queries"
	"skyloader/internal/relstore"
)

// verifyEvery is the sampling stride of the oracle check: every 64th HTTP
// response is kept and later compared with Query.Run.
const verifyEvery = 64

// client drives one HTTP front door over a fixed number of keep-alive
// connections, one worker goroutine per connection.
type client struct {
	base  string
	conns int
	http  *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, conns: conns, http: &http.Client{
		Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// sampled is one response kept for the oracle check.
type sampled struct {
	q    queries.Query
	body []byte
}

// loopResult is what one closed- or open-loop run measured.
type loopResult struct {
	Kind     string  `json:"loop"` // "closed" or "open"
	Clients  int     `json:"clients"`
	RateQPS  float64 `json:"rate_qps,omitempty"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Sent     int     `json:"sent"`
	Failed   int     `json:"failed"` // transport errors and non-200 answers (503 shed included)
	Mismatch int     `json:"oracle_mismatches"`
	// Generator lateness (open loop): how long after its due time a request
	// was handed to a connection worker's queue.
	LateP99Ms float64 `json:"generator_late_p99_ms,omitempty"`
	LateMaxMs float64 `json:"generator_late_max_ms,omitempty"`
	LateEndMs float64 `json:"generator_late_end_ms,omitempty"`

	latNs []int64 // successful requests only; a failure misses any limit
	// atNs places each latency in the loop: the completion offset in a
	// closed loop, the due offset in an open one.
	atNs    []int64
	samples []sampled
	mu      sync.Mutex // guards the three above while workers merge into them
}

// tally is one connection worker's share of a loop, merged into the loop's
// result when the worker ends.
type tally struct {
	lat, at []int64
	kept    []sampled
	failed  int
	buf     bytes.Buffer
}

// send issues request i of trace, timing it from since and placing it at
// offset at of the loop (taken when the answer arrived if at is negative).
func (t *tally) send(c *client, trace []queries.Query, i int, start, since time.Time, at time.Duration) {
	q := trace[i%len(trace)]
	ok, body := c.get(q, &t.buf, i%verifyEvery == 0)
	if !ok {
		t.failed++
		return
	}
	done := time.Now()
	if at < 0 {
		at = done.Sub(start)
	}
	t.lat = append(t.lat, int64(done.Sub(since)))
	t.at = append(t.at, int64(at))
	if body != nil {
		t.kept = append(t.kept, sampled{q, body})
	}
}

func (r *loopResult) merge(t *tally) {
	r.mu.Lock()
	r.latNs = append(r.latNs, t.lat...)
	r.atNs = append(r.atNs, t.at...)
	r.samples = append(r.samples, t.kept...)
	r.Failed += t.failed
	r.mu.Unlock()
}

// get sends one query and reads the whole answer.  keep makes it return the
// body for the oracle check.
func (c *client) get(q queries.Query, buf *bytes.Buffer, keep bool) (ok bool, body []byte) {
	path, err := httpserve.QueryURL(q)
	if err != nil {
		return false, nil
	}
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return false, nil
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, nil
	}
	if keep {
		body = append([]byte(nil), buf.Bytes()...)
	}
	return true, body
}

// closedLoop replays trace with every connection sending its next request
// only after the previous answer arrived, for d.
func (c *client) closedLoop(trace []queries.Query, d time.Duration, seed int64) *loopResult {
	return c.closed(trace, time.Now().Add(d), nil, 0, seed)
}

// closedUntil is closedLoop that runs until stop is closed.
func (c *client) closedUntil(trace []queries.Query, stop <-chan struct{}, seed int64) *loopResult {
	return c.closed(trace, time.Now().Add(time.Hour), stop, 0, seed)
}

// onePass sends every query of trace once (the untimed cache warm-up).
func (c *client) onePass(trace []queries.Query) *loopResult {
	return c.closed(trace, time.Now().Add(time.Hour), nil, len(trace), 0)
}

// closed runs the closed loop until finish, until stop is closed, or, when
// limit is positive, until limit requests were sent.
func (c *client) closed(trace []queries.Query, finish time.Time, stop <-chan struct{}, limit int, seed int64) *loopResult {
	res := &loopResult{Kind: "closed", Clients: c.conns, Seed: seed}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			defer res.merge(&t)
			for time.Now().Before(finish) {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				t.send(c, trace, i, start, time.Now(), -1)
			}
		}()
	}
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	res.Sent = len(res.latNs) + res.Failed
	return res
}

// windows splits the loop's latencies into consecutive windows of the given
// width, dropping the last, partial one.
func (r *loopResult) windows(width time.Duration) [][]int64 {
	out := make([][]int64, int(r.Seconds*float64(time.Second))/int(width))
	for i, at := range r.atNs {
		if w := int(at / int64(width)); w < len(out) {
			out[w] = append(out[w], r.latNs[i])
		}
	}
	return out
}

// openLoop sends trace on a Poisson schedule of rate qps for d, regardless of
// how fast answers come back.  A request is timed from the instant it was
// due, so a stall charges the requests queued behind it; how late the
// generator itself ran is reported beside the latencies.  stop, when non-nil,
// ends the run early once closed (serve-mixed stops when its load does).
func (c *client) openLoop(trace []queries.Query, qps float64, d time.Duration, seed int64, stop <-chan struct{}) *loopResult {
	res := &loopResult{Kind: "open", Clients: c.conns, RateQPS: qps, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := time.Duration(0); t < d && len(due) < len(trace); {
		t += time.Duration(rng.ExpFloat64() / qps * float64(time.Second))
		due = append(due, t)
	}

	type job struct {
		i   int
		off time.Duration
	}
	// Buffered for the whole schedule: the generator never blocks on slow
	// connections, which is what makes the loop open.
	jobs := make(chan job, len(due))
	var (
		wg    sync.WaitGroup
		start = time.Now()
	)
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			defer res.merge(&t)
			for j := range jobs {
				t.send(c, trace, j.i, start, start.Add(j.off), j.off)
			}
		}()
	}

	late := make([]float64, 0, len(due))
generate:
	for i, off := range due {
		at := start.Add(off)
		// Sleep to just short of the due time, then spin through the rest: a
		// timer alone wakes up to a millisecond late on a halted virtual
		// processor, more than a cached request takes.  The spin is kept
		// short because a goroutine that never parks keeps its processor
		// from polling the network.
		for wait := time.Until(at); wait > 0; wait = time.Until(at) {
			if wait > 300*time.Microsecond {
				time.Sleep(wait - 300*time.Microsecond)
			}
		}
		select {
		case <-stop:
			break generate
		default:
		}
		late = append(late, float64(time.Since(at))/1e6)
		jobs <- job{i, off}
	}
	close(jobs)
	wg.Wait()
	res.Seconds = time.Since(start).Seconds()
	res.Sent = len(late)
	if len(late) > 0 {
		res.LateEndMs = late[len(late)-1]
		sort.Float64s(late)
		res.LateP99Ms = quantile(late, 0.99)
		res.LateMaxMs = late[len(late)-1]
	}
	return res
}

// verify compares every kept response with Query.Run on oracle, byte for
// byte in the JSON encoding of its objects and bins.  skip names query
// classes whose answer legitimately changed since it was served.
func (r *loopResult) verify(oracle *relstore.DB, skip map[string]bool) error {
	var first error
	for _, s := range r.samples {
		if skip[s.q.Class()] {
			continue
		}
		var got httpserve.QueryResponse
		err := json.Unmarshal(s.body, &got)
		if err == nil {
			var want queries.Result
			if want, err = s.q.Run(oracle); err == nil {
				err = sameAnswer(got.Objects, got.Bins, want)
			}
		}
		if err != nil {
			r.Mismatch++
			if first == nil {
				first = fmt.Errorf("%s %s: %w", s.q.Class(), s.q.Signature(), err)
			}
		}
	}
	r.samples = nil
	return first
}

// sameAnswer reports whether a served answer equals the oracle's.
func sameAnswer(objects []queries.Object, bins []queries.MagnitudeBin, want queries.Result) error {
	got, err := json.Marshal(struct {
		O []queries.Object
		B []queries.MagnitudeBin
	}{objects, bins})
	if err != nil {
		return err
	}
	// Through the same decode the served answer took, so nil and empty
	// slices compare equal exactly when the wire form does.
	exp, err := json.Marshal(struct {
		O []queries.Object
		B []queries.MagnitudeBin
	}{nilIfEmpty(want.Objects), nilIfEmpty(want.Bins)})
	if err != nil {
		return err
	}
	if !bytes.Equal(got, exp) {
		return fmt.Errorf("answer differs from oracle (%d vs %d bytes)", len(got), len(exp))
	}
	return nil
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}
