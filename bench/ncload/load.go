package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// oracleEvery is how often a query answer is kept for the byte-for-byte
// comparison with the in-process reference.
const oracleEvery = 50

// kept is one answer held back for the oracle.
type kept struct {
	op   *op
	body []byte
}

// loadResult is what one generator observed.
type loadResult struct {
	samples []sample
	kept    []kept
	// failures describes the first few unacceptable answers, for the
	// report; every one is also a !ok sample.
	failures []string
}

func (r *loadResult) fail(format string, args ...any) {
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.samples = append(r.samples, o.samples...)
	r.kept = append(r.kept, o.kept...)
	for _, f := range o.failures {
		r.fail("%s", f)
	}
}

// newConn returns a client that holds exactly one keep-alive
// connection, so "two connections" means two.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// caller issues steps over one connection, reusing its read buffer.
type caller struct {
	client *http.Client
	base   string
	buf    bytes.Buffer
}

// do sends one step and returns the status; the body is left in c.buf.
func (c *caller) do(st *step, session string) (int, error) {
	path := st.path
	if session != "" {
		path = strings.Replace(path, "{id}", session, 1)
	}
	req, err := http.NewRequest(st.method, c.base+path, bytes.NewReader(st.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// wantStatus is the only acceptable status of a step.
func wantStatus(st *step) int {
	if st.path == "/v2/sessions" {
		return http.StatusCreated
	}
	return http.StatusOK
}

// sessionID extracts the id a session-create answer carries.
func sessionID(body []byte) string {
	var env struct {
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	json.Unmarshal(body, &env)
	return env.Session.ID
}

// closedLoop drives base with conns connections for window, each
// sending its next request only when the previous one was answered.
// Every oracleEvery-th stateless answer is kept for the oracle; observe,
// when set, sees every acceptable answer (it runs on the connection's
// goroutine, so with one connection it needs no locking).
func closedLoop(base string, s stream, conns int, window time.Duration, observe func(o *op, body []byte)) *loadResult {
	t0 := time.Now()
	end := t0.Add(window)
	var seq atomic.Int64
	results := make([]*loadResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &loadResult{}
			results[w] = res
			c := &caller{client: newConn(), base: base}
			defer c.client.CloseIdleConnections()
			for time.Now().Before(end) {
				o := s.next()
				n := seq.Add(1)
				session := ""
				for i := range o.steps {
					st := &o.steps[i]
					start := time.Now()
					status, err := c.do(st, session)
					lat := time.Since(start)
					ok := err == nil && status == wantStatus(st)
					if !ok {
						res.fail("%s %s: status %d, err %v: %.200s", st.method, st.path, status, err, c.buf.Bytes())
					}
					res.samples = append(res.samples, sample{at: start.Sub(t0), lat: lat, ok: ok})
					if !ok {
						break
					}
					if i == 0 && len(o.steps) > 1 {
						session = sessionID(c.buf.Bytes())
					}
					if o.stateless() && n%oracleEvery == 0 {
						res.kept = append(res.kept, kept{op: o, body: append([]byte(nil), c.buf.Bytes()...)})
					}
					if observe != nil {
						observe(o, c.buf.Bytes())
					}
				}
			}
		}(w)
	}
	wg.Wait()
	out := &loadResult{}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

// paceTo blocks until due: it sleeps to within a millisecond and spins
// the rest, because a timer wake-up on a shared box lands hundreds of
// microseconds late and that lateness would be charged to the server.
// It returns how late it let go, and whether it had to wait at all: a
// caller that arrives after due was held up by its previous request,
// not by the pacer.
func paceTo(due time.Time) (late time.Duration, waited bool) {
	d := time.Until(due)
	if d <= 0 {
		return -d, false
	}
	if d > time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
	return time.Since(due), true
}

// jsonUint reads the unsigned number after the first occurrence of key
// (`"name":`) in body. A quoted key cannot occur inside a JSON string,
// where quotes are escaped, so the first match is the real field.
func jsonUint(body []byte, key string) int64 {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return -1
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	v, err := strconv.ParseInt(string(body[j:k]), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// ack is one ingest batch's acknowledgement.
type ack struct {
	due        time.Duration // open loop: when it was due, relative to the phase start
	sent       time.Time
	lat        time.Duration // sent (open loop: due) → durable ack
	docs       int
	generation uint64
	ok         bool
}

// ingestOne posts one batch and fills in the ack.
func ingestOne(c *caller, body []byte, docs int) ack {
	a := ack{sent: time.Now(), docs: docs}
	status, err := c.do(&step{method: "POST", path: "/v2/ingest", body: body}, "")
	a.lat = time.Since(a.sent)
	a.ok = err == nil && status == http.StatusOK
	if a.ok {
		a.generation = uint64(jsonUint(c.buf.Bytes(), `"generation":`))
		a.ok = int(jsonUint(c.buf.Bytes(), `"accepted":`)) == docs
	}
	return a
}

// feed posts bodies to base on a fixed schedule of perSec batches a
// second over one connection, whether or not earlier ones were
// acknowledged in time, and times each from the instant it was due to
// its durable acknowledgement: a stall shows up in every batch
// scheduled during it, and a late send never moves later due times.
// The second result is how late the pacer released the sends it paced
// (microseconds); a send that found its due time already past was
// waiting for the previous acknowledgement, which its latency includes.
func feed(base string, bodies [][]byte, docs int, perSec float64) ([]ack, []float64) {
	c := &caller{client: newConn(), base: base}
	defer c.client.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / perSec)
	t0 := time.Now()
	acks := make([]ack, 0, len(bodies))
	var lateUs []float64
	for i, body := range bodies {
		due := time.Duration(i) * interval
		if late, waited := paceTo(t0.Add(due)); waited {
			lateUs = append(lateUs, float64(late)/float64(time.Microsecond))
		}
		a := ingestOne(c, body, docs)
		a.due = due
		a.lat = time.Since(t0.Add(due))
		acks = append(acks, a)
	}
	return acks, lateUs
}

// alertObs is one alert as the SSE subscriber saw it.
type alertObs struct {
	watchlist  int
	seq        uint64
	generation uint64
	at         time.Time
}

// subscriber holds one SSE stream per watchlist open and records every
// alert's arrival.
type subscriber struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	alerts []alertObs
	errs   []string
}

// subscribe opens the event stream of each watchlist id and returns
// once every stream has answered 200, so no alert fired afterwards can
// be missed.
func subscribe(base string, ids []string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	sub := &subscriber{cancel: cancel}
	client := &http.Client{} // no timeout: the stream lives as long as the phase
	for i, id := range ids {
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/v2/watchlists/"+id+"/events", nil)
		if err != nil {
			cancel()
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			cancel()
			return nil, fmt.Errorf("subscribe %s: %s", id, resp.Status)
		}
		sub.wg.Add(1)
		go sub.read(i, resp.Body)
	}
	return sub, nil
}

func (s *subscriber) read(watchlist int, body io.ReadCloser) {
	defer s.wg.Done()
	defer body.Close()
	r := bufio.NewReaderSize(body, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return // cancelled, or the server closed the stream
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		at := time.Now()
		var a struct {
			Seq        uint64 `json:"seq"`
			Generation uint64 `json:"generation"`
		}
		s.mu.Lock()
		if err := json.Unmarshal(data, &a); err != nil {
			s.errs = append(s.errs, fmt.Sprintf("watchlist %d: undecodable alert: %v", watchlist, err))
		} else {
			s.alerts = append(s.alerts, alertObs{watchlist: watchlist, seq: a.Seq, generation: a.Generation, at: at})
		}
		s.mu.Unlock()
	}
}

// close ends every stream and returns what was seen.
func (s *subscriber) close() ([]alertObs, []string) {
	s.cancel()
	s.wg.Wait()
	return s.alerts, s.errs
}
