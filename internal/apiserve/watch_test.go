package apiserve

// Unit contracts of the cursor codec, the canonical query re-encoding and
// the /api/v1/watch long-poll against stub snapshots. End-to-end watch
// behaviour over a real corpus (deltas equal to the set difference of the
// two rounds' windows, concurrency under -race) is pinned at the repo
// root by api_test.go and watch_test.go.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/deliver"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/subscribe"
)

func TestCursorRoundTrip(t *testing.T) {
	for _, c := range []quality.Cursor{
		{},
		{Key: 0.5, ID: 3, Pos: 10},
		{Key: -1.5e-300, ID: 0, Pos: 1},
		{Key: math.Inf(1), ID: 1 << 40, Pos: 123456789},
		{Key: math.Inf(-1), ID: math.MaxInt, Pos: math.MaxInt},
	} {
		for _, shards := range []int{1, 2, 7, 16} {
			tok := EncodeCursor(c, shards)
			got, gotShards, err := DecodeCursor(tok)
			if err != nil {
				t.Fatalf("%+v shards=%d: decode failed: %v", c, shards, err)
			}
			if got != c || gotShards != shards {
				t.Fatalf("round trip %+v shards=%d -> %q -> %+v shards=%d", c, shards, tok, got, gotShards)
			}
		}
	}
}

func TestCursorRejections(t *testing.T) {
	valid := EncodeCursor(quality.Cursor{Key: 0.5, ID: 3, Pos: 10}, 2)
	flip := byte('A')
	if valid[12] == 'A' {
		flip = 'B'
	}
	for name, tok := range map[string]string{
		"empty":          "",
		"not-base64":     "!!!!",
		"short":          valid[:len(valid)-4],
		"tampered":       valid[:12] + string(flip) + valid[13:],
		"wrong-version":  "Av" + valid[2:],
		"padding-abuse":  valid + "=",
		"trailing-bits":  valid[:len(valid)-1] + "/",
		"negative-id":    EncodeCursor(quality.Cursor{ID: -1}, 1),
		"negative-pos":   EncodeCursor(quality.Cursor{Pos: -1}, 1),
		"nan-key-forged": EncodeCursor(quality.Cursor{Key: math.NaN()}, 1),
		"zero-shards":    forgeShards(quality.Cursor{Key: 0.5, ID: 3, Pos: 10}, 0),
	} {
		if _, _, err := DecodeCursor(tok); err == nil {
			t.Errorf("%s (%q) must be rejected", name, tok)
		}
	}
}

// forgeShards re-stamps a token's shard tag (re-checksummed), producing
// a well-formed token with an arbitrary shard count — how a hostile
// client would forge one, and how tests mint out-of-domain tags.
func forgeShards(c quality.Cursor, shards uint32) string {
	buf, err := cursorEncoding.DecodeString(EncodeCursor(c, 1))
	if err != nil {
		panic(err)
	}
	binary.BigEndian.PutUint32(buf[1:], shards)
	h := fnv.New32a()
	h.Write(buf[:cursorSummed])
	binary.BigEndian.PutUint32(buf[cursorSummed:], h.Sum32())
	return cursorEncoding.EncodeToString(buf)
}

func TestEncodeQueryRoundTrip(t *testing.T) {
	raw := "category=pulse&category=place&id=17&id=3&id=17&kind=blog&min_score=0.6" +
		"&min_dim.time=0.5&min_att.relevance=0.4&min_measure.src.time.liveliness=0.3" +
		"&sort=dim.authority&k=10&limit=20&fields=scores"
	v, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	q, err := BindQuery(v)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := BindQuery(EncodeQuery(q))
	if err != nil {
		t.Fatalf("canonical form failed to re-bind: %v", err)
	}
	if q.CanonicalKey() != q2.CanonicalKey() {
		t.Fatalf("round trip changed the canonical key:\n %s\n %s", q.CanonicalKey(), q2.CanonicalKey())
	}
	// Sets are emitted sorted and deduplicated.
	enc := EncodeQuery(q)
	if !reflect.DeepEqual(enc["id"], []string{"3", "17"}) {
		t.Fatalf("ids not canonical: %v", enc["id"])
	}
	if !reflect.DeepEqual(enc["category"], []string{"place", "pulse"}) {
		t.Fatalf("categories not canonical: %v", enc["category"])
	}
}

// watchSnapshot is a Snapshot whose source window is fixed, so watch tests
// control both rounds exactly.
type watchSnapshot struct {
	stubSnapshot
	window []*quality.Assessment
}

func (s *watchSnapshot) QuerySources(q quality.Query) (*quality.QueryResult, error) {
	return &quality.QueryResult{Items: s.window, Total: len(s.window)}, nil
}

// watchProvider owns a snapshot and the registry it feeds, as the
// informer facade does: swap stores the next round, then publishes it.
type watchProvider struct {
	mu   sync.Mutex
	cur  Snapshot
	subs *subscribe.Registry
}

func newWatchProvider(cur Snapshot) *watchProvider {
	p := &watchProvider{cur: cur}
	p.subs = subscribe.New(func() subscribe.Snapshot { return p.Snapshot() }, subscribe.Options{})
	return p
}

func (p *watchProvider) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cur
}

func (p *watchProvider) Subscriptions() *subscribe.Registry { return p.subs }

func (p *watchProvider) swap(next Snapshot) {
	p.mu.Lock()
	p.cur = next
	p.mu.Unlock()
	p.subs.Publish(next)
}

func watchWindow(version int64, ids ...int) *watchSnapshot {
	s := &watchSnapshot{stubSnapshot: stubSnapshot{version: version, lastQ: &quality.Query{}}}
	for i, id := range ids {
		s.window = append(s.window, &quality.Assessment{ID: id, Name: names(id), Score: 1 - float64(i)*0.1})
	}
	return s
}

func names(id int) string { return "src-" + string(rune('a'+id)) }

func decodeWatch(t *testing.T, body []byte) WatchEnvelope {
	t.Helper()
	var env WatchEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("bad watch envelope: %v\n%s", err, body)
	}
	return env
}

func TestWatchDiffAcrossRounds(t *testing.T) {
	old := watchWindow(1, 1, 2, 3, 4)
	p := newWatchProvider(old)
	s := New(p)

	// Register round 1 in the ring, then publish round 2.
	get(t, s, "/api/v1/sources", nil)
	new_ := watchWindow(2, 1, 3, 5, 2)
	p.swap(new_)

	rec := get(t, s, "/api/v1/watch?since=1&k=10", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	env := decodeWatch(t, rec.Body.Bytes())
	if env.APIVersion != "v1" || env.Since != 1 || env.Snapshot != 2 {
		t.Fatalf("envelope %+v", env)
	}
	want := ChangeItems(quality.DiffWindows(old.window, new_.window))
	if env.Count != len(want) || !reflect.DeepEqual(env.Changes, want) {
		t.Fatalf("changes:\n got  %+v\n want %+v", env.Changes, want)
	}
	// Rows 2 (moved down), 3 (moved up), 5 (entered), 4 (left) moved; row
	// 1 held rank 1 and must be absent.
	events := map[int]string{}
	for _, c := range env.Changes {
		events[c.ID] = c.Event
	}
	if events[3] != "moved" || events[5] != "entered" || events[4] != "left" {
		t.Fatalf("events %+v", events)
	}
	if _, held := events[1]; held {
		t.Fatal("a row holding its rank must not appear in the delta")
	}
}

func TestWatchTimeoutAndErrors(t *testing.T) {
	p := newWatchProvider(watchWindow(5, 1, 2))
	s := New(p)
	get(t, s, "/api/v1/sources", nil)

	// Same round within the wait: empty delta, same token.
	start := time.Now()
	rec := get(t, s, "/api/v1/watch?since=5&wait=40ms", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("timeout poll: status %d", rec.Code)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("long-poll returned after %v, before the wait deadline", d)
	}
	env := decodeWatch(t, rec.Body.Bytes())
	if env.Since != 5 || env.Snapshot != 5 || env.Count != 0 || len(env.Changes) != 0 {
		t.Fatalf("timeout envelope %+v", env)
	}

	for target, wantCode := range map[string]int{
		"/api/v1/watch":                       http.StatusBadRequest, // missing since
		"/api/v1/watch?since=abc":             http.StatusBadRequest,
		"/api/v1/watch?since=9":               http.StatusBadRequest, // not yet published
		"/api/v1/watch?since=5&wait=nope":     http.StatusBadRequest,
		"/api/v1/watch?since=5&offset=3":      http.StatusBadRequest, // watch does not paginate
		"/api/v1/watch?since=5&min_dim.z=0.5": http.StatusBadRequest,
		"/api/v1/watch?since=1":               http.StatusGone, // never retained
	} {
		if rec := get(t, s, target, nil); rec.Code != wantCode {
			t.Errorf("%s: status %d, want %d", target, rec.Code, wantCode)
		}
	}
	cursorTok := EncodeCursor(quality.Cursor{Key: 0.5, ID: 1, Pos: 1}, 1)
	if rec := get(t, s, "/api/v1/watch?since=5&cursor="+cursorTok, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("cursor on watch: status %d, want 400", rec.Code)
	}
}

func TestWatchWakesOnNotification(t *testing.T) {
	old := watchWindow(7, 1, 2, 3)
	p := newWatchProvider(old)
	s := New(p)
	get(t, s, "/api/v1/sources", nil)

	go func() {
		time.Sleep(30 * time.Millisecond)
		p.swap(watchWindow(8, 3, 1, 2))
	}()
	start := time.Now()
	rec := get(t, s, "/api/v1/watch?since=7&wait=10s", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("watch did not wake on notification (took %v)", d)
	}
	env := decodeWatch(t, rec.Body.Bytes())
	if env.Snapshot != 8 || env.Count == 0 {
		t.Fatalf("woken envelope %+v", env)
	}
}

// sinkProvider mounts the /api/v1/sinks endpoints over a delivery manager
// fed by the watch provider's registry.
type sinkProvider struct {
	*watchProvider
	sinks *deliver.Manager
}

func (p sinkProvider) Sinks() *deliver.Manager { return p.sinks }

// TestFilterRejectsNaNScoreDelta pins that a NaN min_score_delta is
// refused at every binding of a delta filter. A NaN Filter is never equal
// to itself, so the registry's per-tick cache of filtered deltas would
// miss for each of its subscribers, and it would pass every row while
// Zero reports false.
func TestFilterRejectsNaNScoreDelta(t *testing.T) {
	for _, v := range []string{"NaN", "nan", "-NaN"} {
		if f, err := BindFilter(url.Values{"min_score_delta": {v}}); err == nil {
			t.Errorf("BindFilter accepted min_score_delta=%s as %+v", v, f)
		}
	}
	wp := newWatchProvider(watchWindow(5, 1, 2))
	m := deliver.NewManager(wp.subs, deliver.Options{})
	defer m.Close(context.Background())
	s := New(sinkProvider{wp, m})
	get(t, s, "/api/v1/sources", nil)
	if rec := get(t, s, "/api/v1/watch?since=5&wait=1ms&min_score_delta=NaN", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("watch: status %d, want 400", rec.Code)
	}
	body := `{"url":"http://127.0.0.1:1/hook","query":"k=5&min_score_delta=NaN"}`
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sinks", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("sink: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if n := len(m.Stats()); n != 0 {
		t.Fatalf("a NaN-filter sink was registered: %d sinks", n)
	}
}
