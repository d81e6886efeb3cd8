package apiserve

// Contracts of the per-round body cache: a repeat read of one round
// answers the stored bytes and headers without running the query; each
// representation and each retained round has its own entries; only 200
// answers are stored, within the slot's byte budget; and entries leave
// with their slot.

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"testing"

	"github.com/informing-observers/informer/internal/quality"
)

// countedSnapshot counts the source queries it answers, telling a
// body-cache hit (no query) from a miss.
type countedSnapshot struct {
	*watchSnapshot
	queries int
}

func (s *countedSnapshot) QuerySources(q quality.Query) (*quality.QueryResult, error) {
	s.queries++
	return s.watchSnapshot.QuerySources(q)
}

// counted is a round whose source window holds n rows with IDs from
// first; 24 rows clear gzipMinSize.
func counted(version int64, first, n int) *countedSnapshot {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = first + i
	}
	return &countedSnapshot{watchSnapshot: watchWindow(version, ids...)}
}

// entries reads the number of bodies a retained round holds and their
// accounted bytes.
func entries(t *testing.T, s *Server, version int64) (n, size int) {
	t.Helper()
	slot, ok := s.slot(version)
	if !ok {
		t.Fatalf("snapshot %d is not retained", version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(slot.bodies), slot.size
}

func TestBodyCacheHit(t *testing.T) {
	st := counted(1, 0, 24)
	s := New(newWatchProvider(st))
	const target = "/api/v1/sources?k=30&min_score=0.1"
	for _, enc := range []string{"", "gzip"} {
		hdr := map[string]string{"Accept-Encoding": enc}
		miss := get(t, s, target, hdr)
		queries := st.queries
		hit := get(t, s, target, hdr)
		if st.queries != queries {
			t.Fatalf("%q: the repeat read ran the query again", enc)
		}
		if hit.Code != http.StatusOK || !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
			t.Fatalf("%q: hit answered status %d and different bytes than the miss", enc, hit.Code)
		}
		for _, h := range []string{"ETag", "Content-Encoding", "X-Informer-Snapshot", "Last-Modified", "Content-Type", "Vary"} {
			if got, want := hit.Header().Get(h), miss.Header().Get(h); got != want {
				t.Fatalf("%q: hit %s %q, miss %q", enc, h, got, want)
			}
		}
		if wantGz := enc == "gzip"; (miss.Header().Get("Content-Encoding") == "gzip") != wantGz {
			t.Fatalf("%q: Content-Encoding %q", enc, miss.Header().Get("Content-Encoding"))
		}
		// A conditional GET answered from the cache.
		hdr["If-None-Match"] = miss.Header().Get("ETag")
		if rec := get(t, s, target, hdr); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Fatalf("%q: If-None-Match on a hit: status %d, %d body bytes", enc, rec.Code, rec.Body.Len())
		}
		if st.queries != queries {
			t.Fatalf("%q: the conditional read ran the query", enc)
		}
	}
	// The gzip and identity variants are separate entries.
	if n, _ := entries(t, s, 1); n != 2 {
		t.Fatalf("%d cached bodies after identity and gzip reads, want 2", n)
	}
	// The key is the sorted query string: another spelling of the same
	// parameters is the same entry.
	queries := st.queries
	get(t, s, "/api/v1/sources?min_score=0.1&k=30", nil)
	if st.queries != queries {
		t.Fatal("reordered parameters missed the cache")
	}
}

func TestBodyCachePinnedSlotAndAgeOut(t *testing.T) {
	old := counted(1, 0, 24)
	p := newWatchProvider(old)
	s := New(p)
	const pinned = "/api/v1/sources?k=30&snapshot=1"
	first := get(t, s, pinned, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d", first.Code)
	}
	p.swap(counted(2, 100, 24))
	if rec := get(t, s, "/api/v1/sources?k=30", nil); rec.Header().Get("X-Informer-Snapshot") != "2" {
		t.Fatalf("current read served snapshot %s", rec.Header().Get("X-Informer-Snapshot"))
	}
	queries := old.queries
	again := get(t, s, pinned, nil)
	if old.queries != queries {
		t.Fatal("the pinned repeat read ran the query again")
	}
	if again.Header().Get("X-Informer-Snapshot") != "1" || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("the pinned read after a publish changed")
	}
	if n, _ := entries(t, s, 1); n != 1 {
		t.Fatalf("slot 1 holds %d bodies, want 1", n)
	}
	if n, _ := entries(t, s, 2); n != 1 {
		t.Fatalf("slot 2 holds %d bodies, want 1", n)
	}
	// Publish until round 1 leaves the ring: its bodies go with the slot,
	// and the pin answers 410 instead of a stored body.
	for v := int64(3); v <= 2+retainedSnapshots; v++ {
		p.swap(counted(v, 0, 1))
		get(t, s, "/api/v1/sources?k=1", nil)
	}
	if _, ok := s.slot(1); ok {
		t.Fatal("round 1 is still retained")
	}
	if rec := get(t, s, pinned, nil); rec.Code != http.StatusGone {
		t.Fatalf("aged-out pin: status %d, want 410", rec.Code)
	}
}

func TestBodyCacheStoresOnlyOK(t *testing.T) {
	st := counted(1, 0, 3)
	st.window[1].Score = math.NaN()
	s := New(newWatchProvider(st))
	for target, want := range map[string]int{
		"/api/v1/sources?sort=nope":                      http.StatusBadRequest,
		"/api/v1/sources?cursor=AAAA":                    http.StatusBadRequest,
		"/api/v1/trending":                               http.StatusBadRequest,
		"/api/v1/sources?snapshot=99":                    http.StatusGone,
		"/api/v1/sources?limit=2&cursor=" + shardedTok(): http.StatusGone,
		"/api/v1/sources?k=3":                            http.StatusInternalServerError, // the NaN score
	} {
		for i := 0; i < 2; i++ {
			if rec := get(t, s, target, nil); rec.Code != want {
				t.Fatalf("%s: status %d, want %d", target, rec.Code, want)
			}
		}
	}
	if n, _ := entries(t, s, 1); n != 0 {
		t.Fatalf("%d error answers were stored", n)
	}
}

// shardedTok is a cursor minted under 4 shards: the one-shard stub
// answers it 410 from the handler.
func shardedTok() string {
	return EncodeCursor(quality.Cursor{Key: 0.5, ID: 1, Pos: 1}, 4)
}

func TestBodyCacheBudget(t *testing.T) {
	st := counted(1, 0, 24)
	s := New(newWatchProvider(st))
	// Distinct keys (an unknown parameter the binding ignores) until the
	// slot refuses a body.
	for i := 0; ; i++ {
		target := fmt.Sprintf("/api/v1/sources?k=30&n=%d", i)
		rec := get(t, s, target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target, rec.Code)
		}
		n, size := entries(t, s, 1)
		if size > bodyCacheBytes {
			t.Fatalf("slot holds %d bytes, budget %d", size, bodyCacheBytes)
		}
		if n == i+1 {
			if i > 2*bodyCacheBytes/rec.Body.Len() {
				t.Fatalf("%d bodies of %d bytes stored within a %d-byte budget", n, rec.Body.Len(), bodyCacheBytes)
			}
			continue
		}
		// Past the budget the body is served uncached: the repeat read
		// runs the query again and answers the same bytes.
		if size+rec.Body.Len() <= bodyCacheBytes {
			t.Fatalf("body of %d bytes refused with %d of %d bytes used", rec.Body.Len(), size, bodyCacheBytes)
		}
		queries := st.queries
		again := get(t, s, target, nil)
		if st.queries != queries+1 || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatal("a body past the budget was not served uncached")
		}
		return
	}
}
