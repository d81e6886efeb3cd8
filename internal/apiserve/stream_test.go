package apiserve

// Unit contracts of the /api/v1/stream SSE transport against stub
// snapshots: the sync frame, live delta frames (byte-identical to the
// watch envelopes of the same steps), catch-up on connect, Last-Event-ID
// resume, 410 for aged tokens, heartbeats and the terminal resync frame.
// End-to-end SSE-vs-long-poll equivalence over a real corpus is pinned at
// the repo root by stream_equiv_test.go.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/quality"
)

// sseFrame is one parsed SSE frame; comment-only frames (heartbeats) are
// skipped by readFrame but counted in comments.
type sseFrame struct {
	event, id, data string
}

// frameReader incrementally parses an SSE response body.
type frameReader struct {
	br       *bufio.Reader
	comments int
}

func newFrameReader(body *bufio.Reader) *frameReader { return &frameReader{br: body} }

func (fr *frameReader) readFrame(t *testing.T) sseFrame {
	t.Helper()
	var f sseFrame
	seen := false
	for {
		line, err := fr.br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if seen {
				return f
			}
			continue // separator of a comment-only frame
		}
		switch {
		case strings.HasPrefix(line, ":"):
			fr.comments++
		case strings.HasPrefix(line, "event: "):
			f.event, seen = strings.TrimPrefix(line, "event: "), true
		case strings.HasPrefix(line, "id: "):
			f.id, seen = strings.TrimPrefix(line, "id: "), true
		case strings.HasPrefix(line, "data: "):
			f.data, seen = strings.TrimPrefix(line, "data: "), true
		default:
			t.Fatalf("unexpected stream line %q", line)
		}
	}
}

// openStream connects to the SSE endpoint and asserts the handshake.
func openStream(t *testing.T, base, target string, hdr map[string]string) (*http.Response, *frameReader) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+target, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream handshake: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("stream content type %q", ct)
	}
	return resp, newFrameReader(bufio.NewReader(resp.Body))
}

// watchBody renders the watch envelope a long-poll for the same step
// would answer — the byte-identity reference of a delta frame.
func watchBody(t *testing.T, since, snapshot int64, old, new_ []*quality.Assessment) string {
	t.Helper()
	body, err := json.Marshal(NewWatchEnvelope(since, snapshot, ChangeItems(quality.DiffWindows(old, new_))))
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestStreamDeltasOverOneConnection(t *testing.T) {
	v1 := watchWindow(1, 1, 2, 3, 4)
	p := newWatchProvider(v1)
	s := New(p)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, fr := openStream(t, srv.URL, "/api/v1/stream?since=1&k=10", nil)
	defer resp.Body.Close()

	if f := fr.readFrame(t); f.event != "sync" || f.id != "1" || f.data != `{"api_version":"v1","snapshot":1}` {
		t.Fatalf("sync frame %+v", f)
	}

	// Two ticks arrive over the same connection; each delta frame is the
	// long-poll envelope of the same step, byte for byte, with the frame
	// id carrying the new since-token.
	v2 := watchWindow(2, 1, 3, 5, 2)
	p.swap(v2)
	if f := fr.readFrame(t); f.event != "" || f.id != "2" || f.data != watchBody(t, 1, 2, v1.window, v2.window) {
		t.Fatalf("first delta frame %+v", f)
	}
	v3 := watchWindow(3, 5, 1, 3, 2)
	p.swap(v3)
	if f := fr.readFrame(t); f.id != "3" || f.data != watchBody(t, 2, 3, v2.window, v3.window) {
		t.Fatalf("second delta frame %+v", f)
	}
}

func TestStreamCatchUpAndLastEventIDResume(t *testing.T) {
	v1 := watchWindow(1, 1, 2, 3)
	p := newWatchProvider(v1)
	s := New(p)
	srv := httptest.NewServer(s)
	defer srv.Close()

	get(t, s, "/api/v1/sources", nil) // register round 1 in the ring
	v2 := watchWindow(2, 3, 1, 2)
	p.swap(v2)

	// A connect behind the current round answers one catch-up delta
	// before going live — the same envelope watch?since=1 would answer.
	resp, fr := openStream(t, srv.URL, "/api/v1/stream?since=1&k=10", nil)
	if f := fr.readFrame(t); f.event != "sync" || f.id != "1" {
		t.Fatalf("sync frame %+v", f)
	}
	want := watchBody(t, 1, 2, v1.window, v2.window)
	if f := fr.readFrame(t); f.id != "2" || f.data != want {
		t.Fatalf("catch-up frame %+v, want data %s", f, want)
	}
	resp.Body.Close()

	// Reconnecting with Last-Event-ID instead of ?since= resumes
	// identically (the header wins over the parameter).
	resp, fr = openStream(t, srv.URL, "/api/v1/stream?k=10", map[string]string{"Last-Event-ID": "1"})
	if f := fr.readFrame(t); f.event != "sync" || f.id != "1" {
		t.Fatalf("resumed sync frame %+v", f)
	}
	if f := fr.readFrame(t); f.id != "2" || f.data != want {
		t.Fatalf("resumed catch-up frame %+v", f)
	}
	resp.Body.Close()
}

func TestStreamSinceAbsentStartsAtCurrentRound(t *testing.T) {
	v5 := watchWindow(5, 1, 2)
	p := newWatchProvider(v5)
	s := New(p)
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, fr := openStream(t, srv.URL, "/api/v1/stream?k=10", nil)
	defer resp.Body.Close()
	if f := fr.readFrame(t); f.event != "sync" || f.id != "5" || f.data != `{"api_version":"v1","snapshot":5}` {
		t.Fatalf("sync frame %+v", f)
	}
	v6 := watchWindow(6, 2, 1)
	p.swap(v6)
	if f := fr.readFrame(t); f.id != "6" || f.data != watchBody(t, 5, 6, v5.window, v6.window) {
		t.Fatalf("delta frame %+v", f)
	}
}

func TestStreamErrorsMatchWatch(t *testing.T) {
	p := newWatchProvider(watchWindow(5, 1, 2))
	s := New(p)

	// 410 and 400 are answered before any frame, with the same semantics
	// as /api/v1/watch: aged since → Gone, unpublished since → Bad
	// Request, pagination positions rejected.
	// Each request carries a 2 s deadline: one that binds instead of
	// failing streams until the deadline and fails here rather than
	// hanging the package.
	status := func(target string, hdr map[string]string) int {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if ctx.Err() != nil {
			t.Errorf("%s: streamed until the deadline (status %d) instead of failing", target, rec.Code)
		}
		return rec.Code
	}
	cursorTok := EncodeCursor(quality.Cursor{Key: 0.5, ID: 1, Pos: 1}, 1)
	for target, wantCode := range map[string]int{
		"/api/v1/stream?since=1&k=10":                http.StatusGone, // never retained
		"/api/v1/stream?since=9":                     http.StatusBadRequest,
		"/api/v1/stream?since=abc":                   http.StatusBadRequest,
		"/api/v1/stream?since=5&offset=3":            http.StatusBadRequest,
		"/api/v1/stream?since=5&min_dim.z=0.5":       http.StatusBadRequest,
		"/api/v1/stream?since=5&cursor=" + cursorTok: http.StatusBadRequest,
	} {
		if code := status(target, nil); code != wantCode {
			t.Errorf("%s: status %d, want %d", target, code, wantCode)
		}
	}
	if code := status("/api/v1/stream?k=10", map[string]string{"Last-Event-ID": "nope"}); code != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID: status %d, want 400", code)
	}
}

func TestStreamHeartbeatsAndResyncFrame(t *testing.T) {
	p := newWatchProvider(watchWindow(1, 1, 2))
	s := New(p)
	s.StreamHeartbeat = 20 * time.Millisecond
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, fr := openStream(t, srv.URL, "/api/v1/stream?since=1&k=10", nil)
	defer resp.Body.Close()
	if f := fr.readFrame(t); f.event != "sync" {
		t.Fatalf("sync frame %+v", f)
	}

	// Let a few heartbeats pass, then shut the registry down: the stream
	// ends with a terminal resync frame — the in-stream 410.
	go func() {
		time.Sleep(120 * time.Millisecond)
		p.subs.Close()
	}()
	f := fr.readFrame(t)
	if f.event != "resync" {
		t.Fatalf("terminal frame %+v, want resync", f)
	}
	var re StreamResync
	if err := json.Unmarshal([]byte(f.data), &re); err != nil || re.APIVersion != "v1" || re.Error == "" {
		t.Fatalf("resync payload %q (%v)", f.data, err)
	}
	if fr.comments == 0 {
		t.Fatal("no heartbeat comment arrived before the resync frame")
	}
}
