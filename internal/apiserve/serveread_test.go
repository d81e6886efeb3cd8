package apiserve_test

// The cost of one cold read: a /api/v1/sources?k=25 full page over a
// 2000-source corpus, gzipped, that misses the per-round body cache. The
// facade's query cache is warm after the first request, so what is
// measured is the bytes of the page: encoding, hashing and compression.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

// serveRead returns a read of the benchmark page. Each call's n lands in
// an unknown query parameter, which the binding ignores and the body
// cache keys on, so every call with a new n misses the cache.
func serveRead(tb testing.TB) func(n int) *httptest.ResponseRecorder {
	tb.Helper()
	world := webgen.Generate(webgen.Config{Seed: 21, NumSources: 2000})
	h := informer.FromWorld(world, quality.DomainOfInterest{}, 21).APIHandler()
	return func(n int) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/sources?k=25&n="+strconv.Itoa(n), nil)
		req.Header.Set("Accept-Encoding", "gzip")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Encoding") != "gzip" {
			tb.Fatalf("status %d, encoding %q", rec.Code, rec.Header().Get("Content-Encoding"))
		}
		return rec
	}
}

func BenchmarkServeRead(b *testing.B) {
	read := serveRead(b)
	read(-1) // warm the query cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		read(i)
	}
}

// serveReadAllocBudget caps the heap allocations of one cold read of the
// benchmark page: 48 measured (go1.24, linux/amd64; 55 under -race, where
// sync.Pool drops a share of its items) plus 25%. The count is
// deterministic — AllocsPerRun runs at GOMAXPROCS 1 and the query cache
// answers every measured read — so it gates where ns/op would be noise.
// Building the two Item maps per item and marshalling them through
// encoding/json (2,668 allocations) breaks it, and so does a fresh
// gzip.NewWriter per read.
const serveReadAllocBudget = 60

func TestServeReadAllocBudget(t *testing.T) {
	read := serveRead(t)
	read(-1)
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		read(n)
		n++
	})
	t.Logf("one cold read allocates %.0f times", allocs)
	if allocs > serveReadAllocBudget {
		t.Fatalf("one cold read allocates %.0f times, budget %d", allocs, serveReadAllocBudget)
	}
}
