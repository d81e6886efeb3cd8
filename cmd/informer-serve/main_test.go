package main

// End-to-end smoke of the hardened server lifecycle: boot run() on an
// ephemeral port with a live tick loop and a -sink webhook, prove the
// sink receives the baseline sync plus per-tick deltas across an injected
// 500 (bounded retry recovers, breaker stays closed), then SIGTERM-style
// cancel and prove graceful degradation — pending deliveries flushed, the
// open SSE stream handed its terminal resync frame, run() returning nil.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/apiserve"
	"github.com/informing-observers/informer/internal/quality"
)

// logBuf is a goroutine-safe io.Writer for run()'s output (the tick loop
// and the lifecycle messages write concurrently).
type logBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// waitFor polls cond for up to 15s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServeE2E(t *testing.T) {
	// Flaky webhook: the second POST (the first tick's delta) is served an
	// injected 500; the delivery engine must retry through it.
	var (
		hookMu    sync.Mutex
		hookKinds []string
		hookPosts int
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var env struct {
			Kind     string `json:"kind"`
			Snapshot int64  `json:"snapshot"`
		}
		json.NewDecoder(r.Body).Decode(&env)
		hookMu.Lock()
		defer hookMu.Unlock()
		hookPosts++
		if hookPosts == 2 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		hookKinds = append(hookKinds, env.Kind)
		w.WriteHeader(http.StatusOK)
	}))
	defer hook.Close()
	delivered := func() []string {
		hookMu.Lock()
		defer hookMu.Unlock()
		return append([]string(nil), hookKinds...)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &logBuf{}
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-sources", "30",
			"-seed", "7",
			"-tick-days", "7",
			"-tick-every", "40ms",
			"-sink", hook.URL,
			"-sink-query", "k=5",
		}, out)
	}()

	// The resolved ephemeral address is announced on stdout.
	var base string
	waitFor(t, "listen announcement", func() bool {
		for _, line := range strings.Split(out.String(), "\n") {
			if _, addr, ok := strings.Cut(line, " on http://"); ok && strings.HasPrefix(line, "serving") {
				base = "http://" + strings.TrimSpace(addr)
				return true
			}
		}
		return false
	})

	// Plain snapshot read works over the booted server.
	resp, err := http.Get(base + "/api/v1/sources?k=5")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/sources: %d", resp.StatusCode)
	}

	// Hold an SSE stream open across ticks; it must end with the terminal
	// resync frame when the server degrades, not a silent cut.
	stream, err := http.Get(base + "/api/v1/stream?k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/v1/stream: %d", stream.StatusCode)
	}
	streamLines := make(chan string, 256)
	go func() {
		defer close(streamLines)
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			streamLines <- sc.Text()
		}
	}()

	// The -sink webhook converges through the injected 500: baseline sync
	// first, then at least two tick deltas, in order.
	waitFor(t, "sink deliveries across the injected 500", func() bool {
		got := delivered()
		return len(got) >= 3 && got[0] == "sync"
	})
	for i, kind := range delivered()[1:] {
		if kind != "delta" {
			t.Fatalf("delivery %d: kind %q, want delta", i+1, kind)
		}
	}

	// The management surface reports the recovery: one healthy sink whose
	// retry counter recorded the injected failure.
	resp, err = http.Get(base + "/api/v1/sinks")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Count int `json:"count"`
		Sinks []struct {
			Name    string `json:"name"`
			State   string `json:"state"`
			Retries int64  `json:"retries"`
		} `json:"sinks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listing.Count != 1 || len(listing.Sinks) != 1 {
		t.Fatalf("sink listing: %+v", listing)
	}
	if s := listing.Sinks[0]; s.Name != "flag:-sink" || s.State != "healthy" || s.Retries < 1 {
		t.Fatalf("sink after injected 500: %+v, want healthy with >=1 retry", s)
	}

	// Graceful degradation: cancel (the in-process SIGTERM), run returns
	// clean, the stream ends on a resync frame.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	sawResync := false
	for line := range streamLines {
		if strings.HasPrefix(line, "event: resync") {
			sawResync = true
		}
	}
	if !sawResync {
		t.Fatal("SSE stream ended without a terminal resync frame")
	}
	if !strings.Contains(out.String(), "shutdown: done") {
		t.Fatalf("lifecycle log missing clean shutdown:\n%s", out.String())
	}
	// The tick loop is stopped BEFORE the registry closes: with a 40ms
	// tick racing the cancel, no tick may land once the shutdown sequence
	// has been announced — a tick after that marker would have published
	// into a closing fan-out.
	log := out.String()
	_, afterMarker, ok := strings.Cut(log, "shutting down:")
	if !ok {
		t.Fatalf("lifecycle log missing the shutdown marker:\n%s", log)
	}
	if strings.Contains(afterMarker, "tick:") {
		t.Fatalf("a tick published after shutdown began:\n%s", log)
	}

	// The port is released: a fresh instance can bind and serve again.
	addr := strings.TrimPrefix(base, "http://")
	ctx2, cancel2 := context.WithCancel(context.Background())
	out2 := &logBuf{}
	runErr2 := make(chan error, 1)
	go func() {
		runErr2 <- run(ctx2, []string{"-addr", addr, "-sources", "10", "-seed", "8"}, out2)
	}()
	waitFor(t, "rebind on the released port", func() bool {
		return strings.Contains(out2.String(), "serving 10 sources")
	})
	cancel2()
	if err := <-runErr2; err != nil {
		t.Fatalf("rebind run: %v", err)
	}
}

// TestServeIngestE2E boots the continuous-ingestion mode: adaptive
// per-source polling buffers activity, the drain policy publishes
// coalesced rounds (the "drain:" log lines), the API serves moving
// snapshots throughout, and shutdown stops ingestion before the registry
// closes — any final drain lands before the shutdown marker, never after.
func TestServeIngestE2E(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &logBuf{}
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-sources", "30",
			"-seed", "7",
			"-ingest",
			"-poll-min", "2ms",
			"-poll-max", "50ms",
			"-ingest-drain-ticks", "1",
		}, out)
	}()

	var base string
	waitFor(t, "listen announcement", func() bool {
		for _, line := range strings.Split(out.String(), "\n") {
			if _, addr, ok := strings.Cut(line, " on http://"); ok && strings.HasPrefix(line, "serving") {
				base = "http://" + strings.TrimSpace(addr)
				return true
			}
		}
		return false
	})

	// At least two drains publish rounds while the server keeps answering.
	waitFor(t, "coalesced drains", func() bool {
		return strings.Count(out.String(), "drain:") >= 2
	})
	resp, err := http.Get(base + "/api/v1/sources?k=5")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Snapshot int64 `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.Snapshot < 2 {
		t.Fatalf("GET /api/v1/sources: status %d snapshot %d, want OK and >= 2", resp.StatusCode, body.Snapshot)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	log := out.String()
	if !strings.Contains(log, "shutdown: done") {
		t.Fatalf("lifecycle log missing clean shutdown:\n%s", log)
	}
	// Ingestion halts — final drain included — before the registry close
	// is announced: a drain after the marker would have published into a
	// closing fan-out.
	_, afterMarker, ok := strings.Cut(log, "shutting down:")
	if !ok {
		t.Fatalf("lifecycle log missing the shutdown marker:\n%s", log)
	}
	if strings.Contains(afterMarker, "drain:") {
		t.Fatalf("a drain published after shutdown began:\n%s", log)
	}
}

// TestRunBadFlags pins flag/binding failures to clean errors, not a
// half-booted server.
func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-addr", "127.0.0.1:0", "-sink", "::bad-url::"},
		{"-addr", "127.0.0.1:0", "-sink", "http://127.0.0.1:1/x", "-sink-query", "k=nope"},
		{"-addr", "256.0.0.1:99999"},
		{"-addr", "127.0.0.1:0", "-ingest", "-tick-days", "7"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
	}
}

// TestRegisterSinkBinding pins that -sink-query accepts the full watch
// form (predicates + delta filters) and rejects pagination: the retired
// offset at binding, a cursor at sink registration.
func TestRegisterSinkBinding(t *testing.T) {
	tok := apiserve.EncodeCursor(quality.Cursor{Key: 0.5, ID: 1, Pos: 3}, 1)
	for query, wantMsg := range map[string]string{
		"k=5&offset=3":      "cursor",
		"k=5&cursor=" + tok: "paginate",
	} {
		// A deadline stops a server that wrongly accepted the sink, so a
		// regression fails instead of serving forever.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := run(ctx, []string{
			"-addr", "127.0.0.1:0", "-sink", "http://127.0.0.1:1/x", "-sink-query", query,
		}, io.Discard)
		cancel()
		if err == nil || !strings.Contains(err.Error(), wantMsg) {
			t.Errorf("-sink-query %q: error %v, want one naming %q", query, err, wantMsg)
		}
	}
}
