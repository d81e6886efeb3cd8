package apiserve

// Unit contracts of the serving machinery against a stub snapshot source:
// query-string binding, envelopes, ETag/304, and the snapshot pin ring
// (stable pins, eviction to 410 Gone). End-to-end behaviour over a real
// corpus — including the byte-identity acceptance check and concurrent
// walks during Advance — is pinned by api_test.go at the repo root.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"github.com/informing-observers/informer/internal/buzz"
	"github.com/informing-observers/informer/internal/correlate"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/search"
	"github.com/informing-observers/informer/internal/sentiment"
	"github.com/informing-observers/informer/internal/subscribe"
)

// stubSnapshot answers queries with canned data stamped with its version,
// so tests can tell which round served a response.
type stubSnapshot struct {
	version    int64
	lastQ      *quality.Query // records the bound query for binding assertions
	lastStoryQ correlate.StoryQuery
}

func (s *stubSnapshot) Version() int64 { return s.version }

func (s *stubSnapshot) ShardCount() int { return 1 }

func (s *stubSnapshot) QuerySources(q quality.Query) (*quality.QueryResult, error) {
	*s.lastQ = q
	as := &quality.Assessment{ID: int(s.version), Name: "src", Score: 0.5}
	start := 0
	if q.After != nil {
		start = max(q.After.Pos, 0)
	}
	return &quality.QueryResult{Items: []*quality.Assessment{as}, Total: 7, Start: start}, nil
}

func (s *stubSnapshot) QueryContributors(q quality.Query) (*quality.QueryResult, error) {
	*s.lastQ = q
	return &quality.QueryResult{Items: []*quality.Assessment{}, Total: 0}, nil
}

func (s *stubSnapshot) ContributorRecords() []*quality.ContributorRecord { return nil }

func (s *stubSnapshot) Stories(q correlate.StoryQuery) *StoriesResult {
	s.lastStoryQ = q
	return &StoriesResult{
		Items: []StoryItem{{
			ID: 5, Size: 3, SourceID: 2, DiscussionID: 5, Title: "stub story",
			Members: []StoryMember{{SourceID: 2, Name: "a", Score: 0.9}, {SourceID: 4, Name: "b", Score: 0.4}},
		}},
		Total: 6,
		Next:  &correlate.StoryCursor{LatestNano: 1234, ID: 5},
	}
}

func (s *stubSnapshot) SentimentByCategory() map[string]sentiment.Indicator {
	return map[string]sentiment.Indicator{
		"place": {Category: "place", Mean: 0.25, N: 4},
		"pulse": {Category: "pulse", Mean: -0.5, N: 2},
	}
}

func (s *stubSnapshot) TrendingTerms(category string, k int) []buzz.Term {
	return []buzz.Term{{Word: "duomo", Score: 3, FgCount: 5, BgCount: 9}}
}

func (s *stubSnapshot) Search(query string, k int) []search.Result {
	return []search.Result{{SourceID: 3, Score: 1.5}}
}

// stubProvider serves a swappable current snapshot and owns the registry
// it feeds; swap stores the next round, then publishes it.
type stubProvider struct {
	cur  *stubSnapshot
	subs *subscribe.Registry
}

func (p *stubProvider) Snapshot() Snapshot { return p.cur }

func (p *stubProvider) Subscriptions() *subscribe.Registry { return p.subs }

func (p *stubProvider) swap(next *stubSnapshot) {
	p.cur = next
	p.subs.Publish(next)
}

func newStubServer(version int64) (*Server, *stubProvider, *quality.Query) {
	lastQ := &quality.Query{}
	p := &stubProvider{cur: &stubSnapshot{version: version, lastQ: lastQ}}
	p.subs = subscribe.New(func() subscribe.Snapshot { return p.cur }, subscribe.Options{})
	return New(p), p, lastQ
}

func get(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) Envelope {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope: %v\n%s", err, rec.Body.String())
	}
	return env
}

func TestBindQuery(t *testing.T) {
	v, err := url.ParseQuery("category=place,pulse&kind=blog&id=3&id=17&min_score=0.6" +
		"&min_dim.time=0.5&min_att.relevance=0.4&min_measure.src.time.liveliness=0.3" +
		"&spam_resistance=0.25&sort=dim.authority&k=10&limit=20&fields=scores")
	if err != nil {
		t.Fatal(err)
	}
	q, err := BindQuery(v)
	if err != nil {
		t.Fatal(err)
	}
	want := quality.Query{
		IDs:               []int{3, 17},
		Categories:        []string{"place", "pulse"},
		Kinds:             []string{"blog"},
		MinScore:          0.6,
		MinDimension:      map[quality.Dimension]float64{quality.Time: 0.5},
		MinAttribute:      map[quality.Attribute]float64{quality.Relevance: 0.4},
		MinMeasure:        map[string]float64{"src.time.liveliness": 0.3},
		MinSpamResistance: 0.25,
		Sort:              quality.SortKey{By: quality.SortByDimension, Dimension: quality.Authority},
		TopK:              10,
		Limit:             20,
		Fields:            quality.ProjectScores,
	}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("bound query:\n got  %+v\n want %+v", q, want)
	}
}

func TestBindQueryErrors(t *testing.T) {
	for _, bad := range []string{
		"min_score=abc",
		"min_dim.nope=0.5",
		"min_att.nope=0.5",
		"min_dim.time=x",
		"sort=nope",
		"sort=dim.nope",
		"fields=nope",
		"k=x",
		"id=x",
		"offset=3",
		"offset=0",
		"offset=",
		"k=5&offset=3&cursor=AAAA",
	} {
		v, err := url.ParseQuery(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BindQuery(v); err == nil {
			t.Errorf("%q must fail to bind", bad)
		}
	}
}

func TestEndpointEnvelopeAndBinding(t *testing.T) {
	s, _, lastQ := newStubServer(3)
	tok := EncodeCursor(quality.Cursor{Key: 0.6, ID: 9, Pos: 2}, 1)
	rec := get(t, s, "/api/v1/sources?min_score=0.5&k=10&limit=4&cursor="+tok, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	env := decodeEnvelope(t, rec)
	// The envelope's offset reports the page's start rank, the cursor's.
	if env.APIVersion != "v1" || env.Snapshot != 3 || env.Total != 7 || env.Offset != 2 || env.Count != 1 {
		t.Fatalf("envelope %+v", env)
	}
	if lastQ.MinScore != 0.5 || lastQ.TopK != 10 || lastQ.After == nil || lastQ.After.Pos != 2 || lastQ.Limit != 4 {
		t.Fatalf("query did not reach the snapshot: %+v", lastQ)
	}
	if rec.Header().Get("X-Informer-Snapshot") != "3" {
		t.Fatal("missing snapshot header")
	}
	if rec.Header().Get("ETag") == "" {
		t.Fatal("missing ETag")
	}
}

func TestEndpointBadRequests(t *testing.T) {
	s, _, _ := newStubServer(1)
	for _, target := range []string{
		"/api/v1/sources?min_dim.nope=1",
		"/api/v1/trending",             // missing category
		"/api/v1/search",               // missing q
		"/api/v1/influencers?k=x",      // bad int
		"/api/v1/sources?snapshot=abc", // bad token
		"/api/v1/influencers?strategy=nope",
	} {
		if rec := get(t, s, target, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, rec.Code)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sources", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", rec.Code)
	}
}

// TestCursorShardMismatch410 pins the v2 token's fail-closed contract:
// a cursor minted under a different shard count than the serving
// snapshot's answers 410 Gone (restart the walk), on both windowed
// endpoints, while a matching tag keeps serving — and the page a
// matching walk mints is tagged with the snapshot's own shard count.
func TestCursorShardMismatch410(t *testing.T) {
	s, _, _ := newStubServer(1) // stubSnapshot serves ShardCount() == 1
	stale := EncodeCursor(quality.Cursor{Key: 0.5, ID: 1, Pos: 1}, 4)
	for _, target := range []string{
		"/api/v1/sources?cursor=" + stale,
		"/api/v1/contributors?cursor=" + stale,
	} {
		if rec := get(t, s, target, nil); rec.Code != http.StatusGone {
			t.Errorf("%s: status %d, want 410", target, rec.Code)
		}
	}
	ok := EncodeCursor(quality.Cursor{Key: 0.5, ID: 1, Pos: 1}, 1)
	rec := get(t, s, "/api/v1/sources?cursor="+ok, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("matching shard tag: status %d: %s", rec.Code, rec.Body.String())
	}
	if next := decodeEnvelope(t, rec).NextCursor; next != "" {
		if _, shards, err := DecodeCursor(next); err != nil || shards != 1 {
			t.Fatalf("minted next_cursor %q: shards=%d err=%v, want the snapshot's shard count 1", next, shards, err)
		}
	}
}

func TestETagConditionalGet(t *testing.T) {
	s, _, _ := newStubServer(1)
	first := get(t, s, "/api/v1/sentiment", nil)
	etag := first.Header().Get("ETag")
	again := get(t, s, "/api/v1/sentiment", map[string]string{"If-None-Match": etag})
	if again.Code != http.StatusNotModified {
		t.Fatalf("matching ETag: status %d, want 304", again.Code)
	}
	if again.Body.Len() != 0 {
		t.Fatal("304 must not carry a body")
	}
	miss := get(t, s, "/api/v1/sentiment", map[string]string{"If-None-Match": `"stale"`})
	if miss.Code != http.StatusOK || miss.Body.String() != first.Body.String() {
		t.Fatal("stale ETag must be answered with the full body")
	}
}

func TestSnapshotPinningAndEviction(t *testing.T) {
	s, p, lastQ := newStubServer(1)
	// Seed the ring with round 1, then advance the provider.
	if env := decodeEnvelope(t, get(t, s, "/api/v1/sources", nil)); env.Snapshot != 1 {
		t.Fatalf("snapshot %d, want 1", env.Snapshot)
	}
	p.swap(&stubSnapshot{version: 2, lastQ: lastQ})

	// Unpinned requests follow the current round; pinned ones stay put.
	if env := decodeEnvelope(t, get(t, s, "/api/v1/sources", nil)); env.Snapshot != 2 {
		t.Fatalf("current round: snapshot %d, want 2", env.Snapshot)
	}
	pinned := get(t, s, "/api/v1/sources?snapshot=1", nil)
	if env := decodeEnvelope(t, pinned); env.Snapshot != 1 {
		t.Fatalf("pinned round: snapshot %d, want 1", env.Snapshot)
	}

	// An unknown pin is Gone; after enough newer rounds, round 1 ages out.
	if rec := get(t, s, "/api/v1/sources?snapshot=99", nil); rec.Code != http.StatusGone {
		t.Fatalf("unknown pin: status %d, want 410", rec.Code)
	}
	for v := int64(3); v < 3+retainedSnapshots; v++ {
		p.swap(&stubSnapshot{version: v, lastQ: lastQ})
		get(t, s, "/api/v1/sources", nil)
	}
	if rec := get(t, s, "/api/v1/sources?snapshot=1", nil); rec.Code != http.StatusGone {
		t.Fatalf("evicted pin: status %d, want 410", rec.Code)
	}
}

func TestAllEndpointsServe(t *testing.T) {
	s, _, _ := newStubServer(1)
	for _, target := range []string{
		"/api/v1/sources",
		"/api/v1/contributors",
		"/api/v1/influencers",
		"/api/v1/sentiment",
		"/api/v1/trending?category=place",
		"/api/v1/search?q=duomo",
	} {
		rec := get(t, s, target, nil)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", target, rec.Code, rec.Body.String())
			continue
		}
		env := decodeEnvelope(t, rec)
		if env.APIVersion != "v1" {
			t.Errorf("%s: bad api_version %q", target, env.APIVersion)
		}
	}
}

func TestSentimentCategoryFilterAndOrder(t *testing.T) {
	s, _, _ := newStubServer(1)
	env := decodeEnvelope(t, get(t, s, "/api/v1/sentiment", nil))
	items := env.Items.([]any)
	if len(items) != 2 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].(map[string]any)["category"] != "place" {
		t.Fatal("sentiment items must be category-sorted")
	}
	env = decodeEnvelope(t, get(t, s, "/api/v1/sentiment?category=pulse", nil))
	if env.Count != 1 {
		t.Fatalf("filtered count = %d", env.Count)
	}
}

// TestStoriesEndpointBindingAndEnvelope pins the stories endpoint over
// the stub: parameter binding reaches the snapshot, the envelope carries
// the pre-pagination total, and the next cursor is the canonical token of
// the snapshot's resume position. Bad parameters answer 400.
func TestStoriesEndpointBindingAndEnvelope(t *testing.T) {
	s, p, _ := newStubServer(3)
	cur := EncodeStoryCursor(correlate.StoryCursor{LatestNano: 777, ID: 9})
	rec := get(t, s, "/api/v1/stories?k=4&min_sources=3&cursor="+cur, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	q := p.cur.lastStoryQ
	if q.Limit != 4 || q.MinSources != 3 || q.After == nil || q.After.LatestNano != 777 || q.After.ID != 9 {
		t.Fatalf("snapshot saw query %+v", q)
	}
	env := decodeEnvelope(t, rec)
	if env.Total != 6 {
		t.Errorf("total = %d, want the stub's 6", env.Total)
	}
	if want := EncodeStoryCursor(correlate.StoryCursor{LatestNano: 1234, ID: 5}); env.NextCursor != want {
		t.Errorf("next_cursor = %q, want %q", env.NextCursor, want)
	}
	items, ok := env.Items.([]any)
	if !ok || len(items) != 1 {
		t.Fatalf("items = %#v", env.Items)
	}
	story := items[0].(map[string]any)
	if story["title"] != "stub story" {
		t.Errorf("title = %v", story["title"])
	}
	if members := story["members"].([]any); len(members) != 2 {
		t.Errorf("members = %#v", members)
	}

	for _, bad := range []string{
		"/api/v1/stories?k=0",
		"/api/v1/stories?k=x",
		"/api/v1/stories?min_sources=1",
		"/api/v1/stories?cursor=not-a-token",
	} {
		if rec := get(t, s, bad, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}
}
