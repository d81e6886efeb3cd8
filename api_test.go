package informer

// End-to-end contracts of the /api/v1 serving layer over a real corpus:
// an HTTP response must be byte-identical to the equivalent in-process
// Query against the same snapshot (the wire layer adds representation,
// never computation); every endpoint serves; conditional GETs work across
// Advance ticks; and a paginated walk pinned to a snapshot token never
// mixes two assessment rounds, even while a writer ticks the corpus
// concurrently (run under -race in CI).

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/apiserve"
	"github.com/informing-observers/informer/internal/webgen"
)

func apiGet(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAPISourcesByteIdenticalToInProcessQuery is the acceptance contract:
// /api/v1/sources with bound parameters returns exactly the bytes of the
// equivalent in-process Query wrapped in the envelope.
func TestAPISourcesByteIdenticalToInProcessQuery(t *testing.T) {
	c := New(Config{Seed: 171, NumSources: 60, NumUsers: 150, CommentText: true})
	h := c.APIHandler()

	// A resumed page: the envelope's offset reports the cursor's rank.
	blogs := NewQuery().Kinds("blog").Limit(3).Build()
	first, err := c.QuerySources(blogs)
	if err != nil || first.Next == nil {
		t.Fatalf("first blog page: %v, next %v", err, first)
	}
	tok := apiserve.NextCursorOf(first, c.ShardCount())

	cases := map[string]Query{
		"/api/v1/sources?min_score=0.55&k=10": NewQuery().MinScore(0.55).TopK(10).Build(),
		"/api/v1/sources?category=place&min_dim.time=0.3&sort=dim.time&k=5&fields=scores": NewQuery().
			Categories("place").MinDimension(Time, 0.3).SortByDimension(Time).TopK(5).ScoresOnly().Build(),
		"/api/v1/sources?kind=blog&limit=4&cursor=" + tok: NewQuery().Kinds("blog").Limit(4).Resume(first.Next).Build(),
	}
	for target, q := range cases {
		rec := apiGet(t, h, target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		res, err := c.QuerySources(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(apiserve.NewEnvelope(
			c.SnapshotVersion(), res.Total, res.Start, apiserve.NextCursorOf(res, c.ShardCount()), apiserve.AssessmentItems(res.Items)))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Body.String() != string(want) {
			t.Fatalf("%s: HTTP body diverges from the in-process query\n http: %s\n want: %s",
				target, rec.Body.String(), want)
		}
	}

	// Contributors too, including the spam-resistance predicate.
	target := "/api/v1/contributors?spam_resistance=0.3&k=8"
	rec := apiGet(t, h, target, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d", target, rec.Code)
	}
	res, err := c.QueryContributors(NewQuery().SpamResistant(0.3).TopK(8).Build())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(apiserve.NewEnvelope(
		c.SnapshotVersion(), res.Total, 0, apiserve.NextCursorOf(res, c.ShardCount()), apiserve.AssessmentItems(res.Items)))
	if rec.Body.String() != string(want) {
		t.Fatalf("%s: HTTP body diverges from the in-process query", target)
	}
}

// TestAPIInfluencersByteIdenticalToInProcess pins /api/v1/influencers to
// the in-process read: each binding of strategy, k and min_interactions
// answers exactly the bytes of the matching Corpus.Influencers page in
// the envelope, and bad parameters still answer 400.
func TestAPIInfluencersByteIdenticalToInProcess(t *testing.T) {
	c := New(Config{Seed: 179, NumSources: 60, NumUsers: 200, SpamRate: 0.2})
	h := c.APIHandler()
	cases := map[string]Query{
		"/api/v1/influencers":                        influencerQuery(Combined, 1, 10),
		"/api/v1/influencers?strategy=combined":      influencerQuery(Combined, 1, 10),
		"/api/v1/influencers?strategy=by-activity":   influencerQuery(ByActivity, 1, 10),
		"/api/v1/influencers?strategy=by-relative":   influencerQuery(ByRelative, 1, 10),
		"/api/v1/influencers?min_interactions=50":    influencerQuery(Combined, 50, 10),
		"/api/v1/influencers?min_interactions=0&k=4": influencerQuery(Combined, 1, 4),
		"/api/v1/influencers?k=0":                    influencerQuery(Combined, 1, 0),
		"/api/v1/influencers?k=3":                    influencerQuery(Combined, 1, 3),
	}
	for target, q := range cases {
		rec := apiGet(t, h, target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		infs, err := c.Influencers(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.QueryContributors(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(apiserve.NewEnvelope(c.SnapshotVersion(), res.Total, 0, "", apiserve.InfluencerItems(infs)))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Body.String() != string(want) {
			t.Fatalf("%s: HTTP body diverges from the in-process read\n http: %s\n want: %s", target, rec.Body.String(), want)
		}
	}
	for _, target := range []string{"/api/v1/influencers?strategy=bogus", "/api/v1/influencers?k=x"} {
		if rec := apiGet(t, h, target, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, rec.Code)
		}
	}
}

// TestAPISmoke drives every mounted endpoint once — the serving layer
// cannot rot while this runs in CI.
func TestAPISmoke(t *testing.T) {
	c := New(Config{Seed: 173, NumSources: 30, NumUsers: 90, CommentText: true})
	h := c.APIHandler()
	category := c.World().Categories[0]
	for _, target := range []string{
		"/api/v1/sources?k=5",
		"/api/v1/sources?min_score=0.4&sort=att.traffic&fields=scores",
		"/api/v1/contributors?k=5",
		"/api/v1/influencers?strategy=combined&k=5",
		"/api/v1/sentiment",
		"/api/v1/trending?category=" + category,
		"/api/v1/search?q=hotel+milan&k=5",
	} {
		rec := apiGet(t, h, target, nil)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", target, rec.Code, rec.Body.String())
			continue
		}
		var env apiserve.Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Errorf("%s: bad envelope: %v", target, err)
			continue
		}
		if env.APIVersion != "v1" || env.Snapshot != c.SnapshotVersion() {
			t.Errorf("%s: envelope %+v", target, env)
		}
		items, ok := env.Items.([]any)
		if !ok || len(items) != env.Count {
			t.Errorf("%s: count %d does not match items", target, env.Count)
		}
	}
}

// TestAPIConditionalGetAcrossTicks pins ETag semantics for polling
// clients: same snapshot, same query → 304; after a tick the assessments
// move, so the stale ETag re-fetches a full body with a new token.
func TestAPIConditionalGetAcrossTicks(t *testing.T) {
	c := New(Config{Seed: 175, NumSources: 30, NumUsers: 90, CommentText: true})
	h := c.APIHandler()
	target := "/api/v1/sources?min_score=0.4&k=10"

	first := apiGet(t, h, target, nil)
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}
	if rec := apiGet(t, h, target, map[string]string{"If-None-Match": etag}); rec.Code != http.StatusNotModified {
		t.Fatalf("unchanged snapshot: status %d, want 304", rec.Code)
	}

	c.Advance(30, 1750)
	rec := apiGet(t, h, target, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-tick: status %d, want 200", rec.Code)
	}
	if rec.Header().Get("ETag") == etag {
		t.Fatal("post-tick ETag did not change")
	}
	var env apiserve.Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Snapshot != c.SnapshotVersion() || env.Snapshot < 2 {
		t.Fatalf("post-tick snapshot token %d", env.Snapshot)
	}
}

// TestAPIPaginatedWalkPinnedAcrossAdvance ticks the corpus between pages
// deterministically: the pinned walk must keep reading the pre-tick round
// and match the pre-tick in-process ranking exactly.
func TestAPIPaginatedWalkPinnedAcrossAdvance(t *testing.T) {
	c := New(Config{Seed: 177, NumSources: 40, NumUsers: 120, CommentText: true})
	h := c.APIHandler()

	before, err := c.QuerySources(NewQuery().ScoresOnly().Build())
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := make([]int, len(before.Items))
	for i, a := range before.Items {
		wantIDs[i] = a.ID
	}

	// First page on round 1, then tick, then keep walking pinned.
	first := apiGet(t, h, "/api/v1/sources?fields=scores&limit=15", nil)
	var env struct {
		Snapshot   int64  `json:"snapshot"`
		NextCursor string `json:"next_cursor"`
		Items      []struct {
			ID int `json:"id"`
		} `json:"items"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	c.Advance(20, 1770)
	if c.SnapshotVersion() != 2 {
		t.Fatalf("tick did not move the snapshot: %d", c.SnapshotVersion())
	}

	got := []int{}
	for _, it := range env.Items {
		got = append(got, it.ID)
	}
	for next := env.NextCursor; next != ""; {
		rec := apiGet(t, h, fmt.Sprintf("/api/v1/sources?fields=scores&limit=15&cursor=%s&snapshot=%d", next, env.Snapshot), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("pinned page: status %d: %s", rec.Code, rec.Body.String())
		}
		var page struct {
			Snapshot   int64  `json:"snapshot"`
			NextCursor string `json:"next_cursor"`
			Items      []struct {
				ID int `json:"id"`
			} `json:"items"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.Snapshot != env.Snapshot {
			t.Fatalf("pinned page served round %d, want %d", page.Snapshot, env.Snapshot)
		}
		for _, it := range page.Items {
			got = append(got, it.ID)
		}
		next = page.NextCursor
	}
	if !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("pinned walk diverged from the pre-tick ranking:\n got  %v\n want %v", got, wantIDs)
	}

	// An unpinned request now serves round 2.
	var cur struct {
		Snapshot int64 `json:"snapshot"`
	}
	rec := apiGet(t, h, "/api/v1/sources?limit=1", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &cur); err != nil {
		t.Fatal(err)
	}
	if cur.Snapshot != 2 {
		t.Fatalf("unpinned request served round %d, want 2", cur.Snapshot)
	}
}

// TestAPIConcurrentReadersDuringAdvance hammers every endpoint, including
// full pinned paginated walks, while a writer ticks the corpus — run with
// -race in CI. Each walk asserts its snapshot token never changes
// mid-walk, there are no duplicate IDs, and scores arrive non-increasing:
// any mix of two assessment rounds would break at least one of those.
func TestAPIConcurrentReadersDuringAdvance(t *testing.T) {
	c := New(Config{Seed: 179, NumSources: 30, NumUsers: 90, CommentText: true})
	h := c.APIHandler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	walker := func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ids, scores, _ := apiCursorWalk(t, h, 7)
			seen := map[int]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate id %d in pinned walk", id)
					return
				}
				seen[id] = true
			}
			if len(ids) != 30 {
				t.Errorf("walk returned %d sources, want 30", len(ids))
				return
			}
			for i := 1; i < len(scores); i++ {
				if scores[i] > scores[i-1] {
					t.Errorf("walk scores not ranked at %d", i)
					return
				}
			}
		}
	}
	poller := func(target string) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := apiGet(t, h, target, nil)
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status %d during advance", target, rec.Code)
				return
			}
		}
	}
	wg.Add(5)
	go walker()
	go walker()
	go poller("/api/v1/influencers?k=5")
	go poller("/api/v1/sentiment")
	go poller("/api/v1/contributors?k=5&fields=scores")

	for i := 0; i < 5; i++ {
		c.Advance(2, int64(1790+i))
	}
	close(stop)
	wg.Wait()
}

// apiCursorWalk pages through /api/v1/sources by chaining next_cursor
// tokens, pinned to the first page's snapshot. A 410 (pin aged out)
// restarts the walk on the current round.
func apiCursorWalk(t *testing.T, h http.Handler, pageSize int) ([]int, []float64, int64) {
	t.Helper()
restart:
	for {
		first := apiGet(t, h, fmt.Sprintf("/api/v1/sources?fields=scores&limit=%d", pageSize), nil)
		if first.Code != http.StatusOK {
			t.Fatalf("first page: status %d", first.Code)
		}
		var env struct {
			Snapshot   int64  `json:"snapshot"`
			Total      int    `json:"total"`
			NextCursor string `json:"next_cursor"`
			Items      []struct {
				ID    int     `json:"id"`
				Score float64 `json:"score"`
			} `json:"items"`
		}
		if err := json.Unmarshal(first.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		token := env.Snapshot
		var ids []int
		var scores []float64
		for _, it := range env.Items {
			ids = append(ids, it.ID)
			scores = append(scores, it.Score)
		}
		for pages := 0; env.NextCursor != ""; pages++ {
			if pages > 10000 {
				t.Fatal("cursor walk did not terminate")
			}
			rec := apiGet(t, h, fmt.Sprintf("/api/v1/sources?fields=scores&limit=%d&cursor=%s&snapshot=%d",
				pageSize, env.NextCursor, token), nil)
			if rec.Code == http.StatusGone {
				continue restart
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("cursor page: status %d: %s", rec.Code, rec.Body.String())
			}
			env.NextCursor = ""
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if env.Snapshot != token {
				t.Fatalf("pinned cursor walk changed rounds: %d then %d", token, env.Snapshot)
			}
			for _, it := range env.Items {
				ids = append(ids, it.ID)
				scores = append(scores, it.Score)
			}
		}
		return ids, scores, token
	}
}

// TestAPICursorWalkMatchesRanking is the keyset-pagination acceptance
// contract over the wire: a chained next_cursor walk returns exactly the
// in-process ranking, and each resumed page is byte-identical to the
// in-process page it names.
func TestAPICursorWalkMatchesRanking(t *testing.T) {
	c := New(Config{Seed: 181, NumSources: 45, NumUsers: 120, CommentText: true})
	h := c.APIHandler()

	want, err := c.QuerySources(NewQuery().ScoresOnly().Build())
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := make([]int, len(want.Items))
	for i, a := range want.Items {
		wantIDs[i] = a.ID
	}

	cursorIDs, _, _ := apiCursorWalk(t, h, 7)
	if !reflect.DeepEqual(cursorIDs, wantIDs) {
		t.Fatalf("cursor walk diverged from the in-process ranking:\n got  %v\n want %v", cursorIDs, wantIDs)
	}

	// Page by page, each body is the in-process page wrapped in the
	// envelope, its offset the page's start rank; the final page closes
	// the walk.
	q := NewQuery().ScoresOnly().Limit(7).Build()
	target := "/api/v1/sources?fields=scores&limit=7"
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("cursor walk did not terminate")
		}
		res, err := c.QuerySources(q)
		if err != nil {
			t.Fatal(err)
		}
		next := apiserve.NextCursorOf(res, c.ShardCount())
		body, err := json.Marshal(apiserve.NewEnvelope(c.SnapshotVersion(), res.Total, res.Start, next, apiserve.AssessmentItems(res.Items)))
		if err != nil {
			t.Fatal(err)
		}
		rec := apiGet(t, h, target, nil)
		if rec.Body.String() != string(body) {
			t.Fatalf("page %d diverges from the in-process page:\n http: %s\n want: %s", pages, rec.Body.String(), body)
		}
		if res.Start != 7*pages {
			t.Fatalf("page %d starts at rank %d, want %d", pages, res.Start, 7*pages)
		}
		if next == "" {
			if res.Start+len(res.Items) != len(wantIDs) {
				t.Fatalf("walk closed after %d of %d rows", res.Start+len(res.Items), len(wantIDs))
			}
			break
		}
		q.After = res.Next
		target = "/api/v1/sources?fields=scores&limit=7&cursor=" + next
	}
}

// TestAPIOffsetRetired pins the retired offset surface: every endpoint
// that binds a query — reads, standing windows and sink creation —
// answers any offset parameter, offset=0 included, with a 400 naming the
// cursor to page with instead. A cursor on a standing window is refused
// by the subscription registry itself.
func TestAPIOffsetRetired(t *testing.T) {
	c := New(Config{Seed: 187, NumSources: 30, NumUsers: 90, CommentText: true})
	h := c.APIHandler()
	errorOf := func(rec *httptest.ResponseRecorder) string {
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			return rec.Body.String()
		}
		return body.Error
	}
	for _, target := range []string{
		"/api/v1/sources?offset=3",
		"/api/v1/sources?offset=0&limit=5",
		"/api/v1/sources?offset=",
		"/api/v1/contributors?k=5&offset=2",
		"/api/v1/watch?since=1&k=5&offset=3",
		"/api/v1/stream?k=5&offset=3",
	} {
		// A deadline ends a watch or stream that wrongly accepted the
		// query, so a regression fails instead of hanging.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req := httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		cancel()
		if rec.Code != http.StatusBadRequest || !strings.Contains(errorOf(rec), "cursor") {
			t.Errorf("%s: status %d, error %q; want 400 naming cursor", target, rec.Code, errorOf(rec))
		}
	}

	res, err := c.QuerySources(NewQuery().Limit(3).Build())
	if err != nil {
		t.Fatal(err)
	}
	tok := apiserve.NextCursorOf(res, c.ShardCount())
	for query, wantMsg := range map[string]string{
		"k=5&offset=3":      "cursor",
		"k=5&cursor=" + tok: "paginate",
	} {
		body := fmt.Sprintf(`{"url":"http://127.0.0.1:1/hook","query":%q}`, query)
		req := httptest.NewRequest(http.MethodPost, "/api/v1/sinks", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(errorOf(rec), wantMsg) {
			t.Errorf("sink query %q: status %d, error %q; want 400 naming %q", query, rec.Code, errorOf(rec), wantMsg)
		}
	}
	if n := len(c.Sinks().Stats()); n != 0 {
		t.Fatalf("rejected sinks were registered: %d", n)
	}
}

// TestAPIWatchEndToEnd drives /api/v1/watch over a real corpus: the delta
// between two assessment rounds must reproduce DiffWindows of the two
// in-process windows exactly; an unmoved round answers an empty delta
// after the wait; an aged since-token answers 410.
func TestAPIWatchEndToEnd(t *testing.T) {
	c := New(Config{Seed: 183, NumSources: 40, NumUsers: 100, CommentText: true})
	h := c.APIHandler()

	// Register round 1 in the retention ring and archive its window.
	apiGet(t, h, "/api/v1/sources?limit=1", nil)
	win1, err := c.QuerySources(NewQuery().TopK(10).Build())
	if err != nil {
		t.Fatal(err)
	}

	// No newer round: the long-poll drains its wait and answers empty.
	rec := apiGet(t, h, "/api/v1/watch?since=1&k=10&wait=30ms", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("idle watch: status %d", rec.Code)
	}
	var idle apiserve.WatchEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &idle); err != nil {
		t.Fatal(err)
	}
	if idle.Since != 1 || idle.Snapshot != 1 || idle.Count != 0 {
		t.Fatalf("idle envelope %+v", idle)
	}

	c.Advance(30, 1830)
	win2, err := c.QuerySources(NewQuery().TopK(10).Build())
	if err != nil {
		t.Fatal(err)
	}

	rec = apiGet(t, h, "/api/v1/watch?since=1&k=10", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("watch: status %d: %s", rec.Code, rec.Body.String())
	}
	var env apiserve.WatchEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Since != 1 || env.Snapshot != 2 {
		t.Fatalf("envelope %+v", env)
	}
	want := apiserve.ChangeItems(DiffWindows(win1.Items, win2.Items))
	if !reflect.DeepEqual(env.Changes, want) {
		t.Fatalf("watch delta diverges from DiffWindows:\n got  %+v\n want %+v", env.Changes, want)
	}

	// A long-poll parked on round 2 wakes when Advance publishes round 3.
	done := make(chan apiserve.WatchEnvelope, 1)
	go func() {
		rec := apiGet(t, h, "/api/v1/watch?since=2&k=10&wait=10s", nil)
		var env apiserve.WatchEnvelope
		json.Unmarshal(rec.Body.Bytes(), &env)
		done <- env
	}()
	time.Sleep(20 * time.Millisecond)
	c.Advance(15, 1831)
	select {
	case env := <-done:
		if env.Snapshot != 3 {
			t.Fatalf("woken watch answered round %d, want 3", env.Snapshot)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("watch long-poll never woke on Advance")
	}

	// Age round 1 out of the ring: its since-token turns 410.
	for i := 0; i < 10; i++ {
		c.Advance(1, int64(1840+i))
		apiGet(t, h, "/api/v1/sources?limit=1", nil)
	}
	if rec := apiGet(t, h, "/api/v1/watch?since=1&k=10", nil); rec.Code != http.StatusGone {
		t.Fatalf("aged since: status %d, want 410", rec.Code)
	}
}

// fetchWindow reads one pinned top-k window over the wire and rebuilds the
// minimal assessments a DiffWindows needs. ok is false when the pin has
// aged out.
func fetchWindow(t *testing.T, h http.Handler, k int, snapshot int64) ([]*Assessment, bool) {
	t.Helper()
	rec := apiGet(t, h, fmt.Sprintf("/api/v1/sources?fields=scores&k=%d&snapshot=%d", k, snapshot), nil)
	if rec.Code == http.StatusGone {
		return nil, false
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("window fetch: status %d", rec.Code)
	}
	var env struct {
		Items []struct {
			ID    int     `json:"id"`
			Name  string  `json:"name"`
			Score float64 `json:"score"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	items := make([]*Assessment, len(env.Items))
	for i, it := range env.Items {
		items[i] = &Assessment{ID: it.ID, Name: it.Name, Score: it.Score}
	}
	return items, true
}

// TestAPIConcurrentCursorWalksAndWatchDuringAdvance extends the -race
// serving contract to the scale-out read paths: concurrent chained-cursor
// walks (no duplicates, no gaps, ranked order) and watch long-polls
// (every delta exactly reproducible from the two rounds' pinned windows)
// while a writer ticks the corpus.
func TestAPIConcurrentCursorWalksAndWatchDuringAdvance(t *testing.T) {
	c := New(Config{Seed: 185, NumSources: 30, NumUsers: 90, CommentText: true})
	h := c.APIHandler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	cursorWalker := func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ids, scores, _ := apiCursorWalk(t, h, 7)
			seen := map[int]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate id %d in cursor walk", id)
					return
				}
				seen[id] = true
			}
			if len(ids) != 30 {
				t.Errorf("cursor walk returned %d sources, want 30 (gap or overrun)", len(ids))
				return
			}
			for i := 1; i < len(scores); i++ {
				if scores[i] > scores[i-1] {
					t.Errorf("cursor walk scores not ranked at %d", i)
					return
				}
			}
		}
	}
	watcher := func() {
		defer wg.Done()
		// Sync to the current round.
		rec := apiGet(t, h, "/api/v1/sources?limit=1", nil)
		var sync0 struct {
			Snapshot int64 `json:"snapshot"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sync0); err != nil {
			t.Error(err)
			return
		}
		since := sync0.Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := apiGet(t, h, fmt.Sprintf("/api/v1/watch?since=%d&k=10&wait=150ms", since), nil)
			if rec.Code == http.StatusGone {
				// Fell too far behind the ring: re-sync.
				rec = apiGet(t, h, "/api/v1/sources?limit=1", nil)
				if err := json.Unmarshal(rec.Body.Bytes(), &sync0); err != nil {
					t.Error(err)
					return
				}
				since = sync0.Snapshot
				continue
			}
			if rec.Code != http.StatusOK {
				t.Errorf("watch: status %d: %s", rec.Code, rec.Body.String())
				return
			}
			var env apiserve.WatchEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Error(err)
				return
			}
			if env.Snapshot > env.Since {
				// The delta must sum to the snapshot diff: recompute it
				// from the two rounds' pinned windows (skip when either
				// pin has already aged out).
				oldWin, ok1 := fetchWindow(t, h, 10, env.Since)
				newWin, ok2 := fetchWindow(t, h, 10, env.Snapshot)
				if ok1 && ok2 {
					want := apiserve.ChangeItems(DiffWindows(oldWin, newWin))
					if !reflect.DeepEqual(env.Changes, want) {
						t.Errorf("watch delta does not sum to the snapshot diff (%d -> %d):\n got  %+v\n want %+v",
							env.Since, env.Snapshot, env.Changes, want)
						return
					}
				}
			}
			since = env.Snapshot
		}
	}
	wg.Add(4)
	go cursorWalker()
	go cursorWalker()
	go watcher()
	go watcher()

	for i := 0; i < 5; i++ {
		time.Sleep(30 * time.Millisecond)
		c.Advance(2, int64(1850+i))
	}
	close(stop)
	wg.Wait()
}

// TestAPIBodyCacheDuringSameDayTicks reads a mix of endpoints in both
// representations from concurrent readers while same-day ticks publish
// rounds over an 8-shard corpus — run with -race in CI. Every answer's
// envelope names the round in its X-Informer-Snapshot header, and every
// answer to one read of one round (the misses that fill the per-round
// body cache and the hits it serves) carries the same bytes and ETag.
// After the ticks, the current round's pages still equal the in-process
// queries byte for byte.
func TestAPIBodyCacheDuringSameDayTicks(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 183, NumSources: 64, NumUsers: 160})
	c := FromWorldSharded(world, DomainOfInterest{}, 183, 8)
	h := c.APIHandler()
	targets := []string{
		"/api/v1/sources?k=10",
		"/api/v1/sources?limit=30&fields=scores",
		"/api/v1/contributors?limit=20",
		"/api/v1/influencers?k=5",
	}
	type readKey struct{ snapshot, target, enc string }
	type answer struct {
		body []byte
		tag  string
	}
	var mu sync.Mutex
	seen := map[readKey]answer{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(r int) {
		defer wg.Done()
		for i := r; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			target, enc := targets[i%len(targets)], []string{"", "gzip"}[i/len(targets)%2]
			rec := apiGet(t, h, target, map[string]string{"Accept-Encoding": enc})
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status %d during ticks", target, rec.Code)
				return
			}
			body := rec.Body.Bytes()
			if rec.Header().Get("Content-Encoding") == "gzip" {
				zr, err := gzip.NewReader(bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				if body, err = io.ReadAll(zr); err != nil {
					t.Error(err)
					return
				}
			}
			var env apiserve.Envelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Errorf("%s: %v", target, err)
				return
			}
			snap := rec.Header().Get("X-Informer-Snapshot")
			if fmt.Sprint(env.Snapshot) != snap {
				t.Errorf("%s: envelope of round %d under header %s", target, env.Snapshot, snap)
				return
			}
			k, a := readKey{snap, target, enc}, answer{rec.Body.Bytes(), rec.Header().Get("ETag")}
			mu.Lock()
			prev, ok := seen[k]
			seen[k] = a
			mu.Unlock()
			if ok && (!bytes.Equal(prev.body, a.body) || prev.tag != a.tag) {
				t.Errorf("%s (%q) on round %s: two different answers", target, enc, snap)
				return
			}
		}
	}
	wg.Add(4)
	for r := 0; r < 4; r++ {
		go reader(r)
	}
	for i := 0; i < 6; i++ {
		c.AdvanceSameDay(int64(1830+i), nil)
	}
	close(stop)
	wg.Wait()

	res, err := c.QuerySources(NewQuery().TopK(10).Build())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(apiserve.NewEnvelope(c.SnapshotVersion(), res.Total, res.Start,
		apiserve.NextCursorOf(res, c.ShardCount()), apiserve.AssessmentItems(res.Items)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the miss, then the hit
		if rec := apiGet(t, h, "/api/v1/sources?k=10", nil); rec.Body.String() != string(want) {
			t.Fatalf("sources page diverges from the in-process query\n http: %s\n want: %s", rec.Body.String(), want)
		}
	}
}
