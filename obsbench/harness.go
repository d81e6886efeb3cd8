package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/deliver"
	"github.com/informing-observers/informer/internal/webgen"
)

// settleTimeout bounds how long a round may take to reach every remote
// observer before the benchmark counts the delivery as failed.
const settleTimeout = 10 * time.Second

// harness is one corpus ready to serve: the corpus, its /api/v1 server on
// loopback, the in-process subscribers, the SSE client and the webhook
// receiver.
type harness struct {
	sp  *spec
	c   *informer.Corpus
	api *httptest.Server

	subs   []*subscriber
	sse    *sseClient
	hook   *hookReceiver
	sinkID string
	notify chan struct{} // pinged by the remote observers on every arrival
}

// subscriber is one in-process standing-query subscription. The writer
// drains it after every round, so it needs no goroutine of its own.
type subscriber struct {
	query string
	sub   *informer.Subscription
	// window is the last delivered window, by round.
	window  []*informer.Assessment
	version int64
}

// newHarness builds a corpus from the world and attaches every observer
// the spec asks for, then waits until each remote observer holds the
// baseline round. This is the set-up the benchmark times.
func newHarness(sp *spec, world *webgen.World) (*harness, error) {
	c := informer.FromWorldSharded(world, informer.DomainOfInterest{}, sp.world.Seed, sp.shards)
	h := &harness{sp: sp, c: c, notify: make(chan struct{}, 1)}
	h.api = httptest.NewServer(c.APIHandler())
	for _, st := range sp.subs {
		q, err := bindQuery(st.query)
		if err != nil {
			h.close()
			return nil, err
		}
		for _, f := range st.filters {
			s, err := c.SubscribeFiltered(q, f)
			if err != nil {
				h.close()
				return nil, fmt.Errorf("subscribe %s: %w", st.query, err)
			}
			h.subs = append(h.subs, &subscriber{query: st.query, sub: s, window: s.Window(), version: s.Since()})
		}
	}
	if sp.webhook != "" {
		q, err := bindQuery(sp.webhook)
		if err != nil {
			h.close()
			return nil, err
		}
		h.hook = newHookReceiver(h.notify)
		id, err := c.Sinks().Register(informer.SinkConfig{
			Name:  "obsbench",
			Sink:  &informer.WebhookSink{URL: h.hook.srv.URL + "/hook", Client: h.hook.client()},
			Query: q,
		})
		if err != nil {
			h.close()
			return nil, fmt.Errorf("register webhook: %w", err)
		}
		h.sinkID = id
	}
	if sp.sse != "" {
		s, err := dialSSE(h.api.URL+"/api/v1/stream?"+sp.sse, h.notify)
		if err != nil {
			h.close()
			return nil, err
		}
		h.sse = s
	}
	if _, err := h.settle(c.SnapshotVersion(), time.Now().Add(settleTimeout)); err != nil {
		h.close()
		return nil, fmt.Errorf("baseline delivery: %w", err)
	}
	return h, nil
}

func bindQuery(raw string) (informer.Query, error) {
	v, err := url.ParseQuery(raw)
	if err != nil {
		return informer.Query{}, fmt.Errorf("query %q: %w", raw, err)
	}
	q, err := informer.BindQuery(v)
	if err != nil {
		return informer.Query{}, fmt.Errorf("query %q: %w", raw, err)
	}
	return q, nil
}

// close tears the harness down: remote observers first, so the registry
// shutdown is not mistaken for a dropped stream.
func (h *harness) close() {
	if h.sse != nil {
		h.sse.close()
	}
	for _, s := range h.subs {
		s.sub.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = h.c.Shutdown(ctx) // pending deliveries of a finished run carry no result
	if h.hook != nil {
		h.hook.close()
	}
	h.api.Close()
}

// settle waits until every remote observer holds round v and returns when
// the last of them did. The webhook holds a round when its receiver got
// an envelope ending at v or later, or when the sink consumed the round
// without a POST because the window did not move.
func (h *harness) settle(v int64, deadline time.Time) (time.Time, error) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		var at time.Time
		ok := true
		if h.sse != nil {
			t, held, err := h.sse.heldAt(v)
			if err != nil {
				return time.Time{}, err
			}
			ok = held
			at = t
		}
		if ok && h.hook != nil {
			t, held := h.hook.heldAt(v)
			if !held {
				st, found := h.c.Sinks().Get(h.sinkID)
				if !found || st.State != deliver.StateHealthy {
					return time.Time{}, fmt.Errorf("webhook sink left the healthy state: %+v", st)
				}
				if st.LastDelivered >= v {
					t, held = time.Now(), true
				}
			}
			ok = held
			if t.After(at) {
				at = t
			}
		}
		if ok {
			return at, nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("round %d not delivered within %s", v, settleTimeout)
		}
		timer.Reset(100 * time.Microsecond)
		select {
		case <-h.notify:
		case <-timer.C:
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// drainSubs takes each in-process subscriber's event for round v and
// returns how many events were delivered. A missing event, a skipped
// round or a dropped subscriber is a failure.
func (h *harness) drainSubs(v int64, t *tally) int {
	events := 0
	for _, s := range h.subs {
		select {
		case ev, ok := <-s.sub.Events():
			if !ok {
				t.fail("subscriber-dropped", fmt.Sprintf("%s: %v", s.query, s.sub.Err()))
				continue
			}
			events++
			if ev.Snapshot != v || ev.Since != s.version {
				t.fail("subscriber-round", fmt.Sprintf("%s: event %d..%d, want %d..%d", s.query, ev.Since, ev.Snapshot, s.version, v))
				continue
			}
			s.window, s.version = ev.Window, ev.Snapshot
			t.ok()
		default:
			t.fail("subscriber-missed", fmt.Sprintf("%s: no event for round %d", s.query, v))
		}
	}
	return events
}

// sseClient reads one /api/v1/stream connection and records when each
// frame arrived.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}
	notify chan struct{}

	mu      sync.Mutex
	ids     []int64 // frame ids in arrival order
	ats     []time.Time
	resync  string
	readErr error
	closing bool
}

func dialSSE(target string, notify chan struct{}) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("dial stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("dial stream: status %d", resp.StatusCode)
	}
	s := &sseClient{cancel: cancel, done: make(chan struct{}), notify: notify}
	go s.read(resp.Body)
	return s, nil
}

func (s *sseClient) read(body io.ReadCloser) {
	defer close(s.done)
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var event, id string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case line == "":
			s.frame(event, id)
			event, id = "", ""
		}
	}
	s.mu.Lock()
	if !s.closing {
		s.readErr = fmt.Errorf("stream ended: %v", sc.Err())
	}
	s.mu.Unlock()
	ping(s.notify)
}

func (s *sseClient) frame(event, id string) {
	now := time.Now()
	s.mu.Lock()
	if event == "resync" && !s.closing {
		s.resync = "stream sent a resync frame"
	}
	if id != "" {
		if v, err := strconv.ParseInt(id, 10, 64); err == nil {
			s.ids = append(s.ids, v)
			s.ats = append(s.ats, now)
		}
	}
	s.mu.Unlock()
	ping(s.notify)
}

// heldAt reports when the stream first carried a frame ending at v or
// later.
func (s *sseClient) heldAt(v int64) (time.Time, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resync != "" {
		return time.Time{}, false, errors.New(s.resync)
	}
	for i := len(s.ids) - 1; i >= 0 && s.ids[i] >= v; i-- {
		if i == 0 || s.ids[i-1] < v {
			return s.ats[i], true, nil
		}
	}
	if s.readErr != nil {
		return time.Time{}, false, s.readErr
	}
	return time.Time{}, false, nil
}

// last is the id of the newest frame.
func (s *sseClient) last() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ids) == 0 {
		return 0
	}
	return s.ids[len(s.ids)-1]
}

func (s *sseClient) close() {
	s.mu.Lock()
	s.closing = true
	s.mu.Unlock()
	s.cancel()
	<-s.done
}

// hookReceiver is the webhook sink's remote end on loopback.
type hookReceiver struct {
	srv    *httptest.Server
	notify chan struct{}

	mu    sync.Mutex
	snaps []int64
	ats   []time.Time
	bytes int64
	bad   string
}

func newHookReceiver(notify chan struct{}) *hookReceiver {
	r := &hookReceiver{notify: notify}
	r.srv = httptest.NewServer(http.HandlerFunc(r.serve))
	return r
}

func (r *hookReceiver) client() *http.Client { return r.srv.Client() }

func (r *hookReceiver) serve(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(req.Body)
	now := time.Now()
	var env deliver.Envelope
	if err == nil {
		err = json.Unmarshal(body, &env)
	}
	r.mu.Lock()
	if err != nil {
		r.bad = err.Error()
	} else {
		r.snaps = append(r.snaps, env.Snapshot)
		r.ats = append(r.ats, now)
		r.bytes += int64(len(body))
	}
	r.mu.Unlock()
	w.WriteHeader(http.StatusOK)
	ping(r.notify)
}

// heldAt reports when the receiver first got an envelope ending at v or
// later.
func (r *hookReceiver) heldAt(v int64) (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.snaps) - 1; i >= 0 && r.snaps[i] >= v; i-- {
		if i == 0 || r.snaps[i-1] < v {
			return r.ats[i], true
		}
	}
	return time.Time{}, false
}

// received reports the bytes and the newest round received, and the
// first malformed envelope's error ("" when none).
func (r *hookReceiver) received() (bytes int64, last int64, bad string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.snaps) > 0 {
		last = r.snaps[len(r.snaps)-1]
	}
	return r.bytes, last, r.bad
}

func (r *hookReceiver) close() { r.srv.Close() }

// ping wakes a waiter without blocking the sender.
func ping(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// reader issues the benchmark's HTTP reads over one keep-alive
// connection and follows keyset walks.
type reader struct {
	base   string
	client *http.Client
	next   map[string]string // walk path -> next_cursor of its last page
}

func newReader(base string) *reader {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &reader{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, next: map[string]string{}}
}

// target is the URL a read fetches: a walk read resumes after the last
// page of the same walk, or starts it over when the walk is exhausted.
func (r *reader) target(rd readPlan) string {
	p := rd.path
	if rd.walk {
		if cur := r.next[rd.path]; cur != "" {
			p += "&cursor=" + url.QueryEscape(cur)
		}
	}
	return p
}

// observe records a walk read's next cursor from its response body.
func (r *reader) observe(rd readPlan, body []byte) {
	if !rd.walk {
		return
	}
	var env struct {
		NextCursor string `json:"next_cursor"`
	}
	if json.Unmarshal(body, &env) == nil {
		r.next[rd.path] = env.NextCursor
	}
}

// get performs one read; anything but a 200 is an error.
func (r *reader) get(rd readPlan) error {
	resp, err := r.client.Get(r.base + r.target(rd))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", rd.path, resp.StatusCode, body)
	}
	r.observe(rd, body)
	return nil
}

func (r *reader) close() { r.client.CloseIdleConnections() }
