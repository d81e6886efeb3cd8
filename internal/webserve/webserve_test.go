package webserve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/informing-observers/informer/internal/feed"
	"github.com/informing-observers/informer/internal/webgen"
	"github.com/informing-observers/informer/internal/wire"
)

func newTestServer(t *testing.T) (*webgen.World, *httptest.Server) {
	t.Helper()
	world := webgen.Generate(webgen.Config{Seed: 5, NumSources: 8, NumUsers: 30, CommentText: true})
	ts := httptest.NewServer(New(world))
	t.Cleanup(ts.Close)
	return world, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestSitemapListsAllSources(t *testing.T) {
	world, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/sitemap.txt")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	lines := strings.Fields(body)
	if len(lines) != len(world.Sources) {
		t.Errorf("sitemap has %d lines, want %d", len(lines), len(world.Sources))
	}
	for i, l := range lines {
		want := fmt.Sprintf("/s/%d/", i)
		if l != want {
			t.Errorf("line %d = %q, want %q", i, l, want)
		}
	}
}

func TestIndexPageContainsIsland(t *testing.T) {
	world, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/s/0/")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	marker := `<script type="application/x-source-info+json">`
	i := strings.Index(body, marker)
	if i < 0 {
		t.Fatal("no source-info island")
	}
	j := strings.Index(body[i:], "</script>")
	var info wire.SourceInfo
	if err := json.Unmarshal([]byte(body[i+len(marker):i+j]), &info); err != nil {
		t.Fatal(err)
	}
	src := world.Sources[0]
	if info.ID != 0 || info.Name != src.Name || info.Host != src.Host {
		t.Errorf("island mismatch: %+v", info)
	}
	if len(info.DiscussionIDs) != len(src.Discussions) {
		t.Errorf("discussion ids = %d, want %d", len(info.DiscussionIDs), len(src.Discussions))
	}
	if info.OpenDiscussion != src.OpenDiscussions() {
		t.Errorf("open = %d, want %d", info.OpenDiscussion, src.OpenDiscussions())
	}
}

func TestDiscussionPage(t *testing.T) {
	world, ts := newTestServer(t)
	src := world.Sources[0]
	d := src.Discussions[0]
	code, body := get(t, fmt.Sprintf("%s/s/%d/d/%d", ts.URL, src.ID, d.ID))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	marker := `<script type="application/x-discussion+json">`
	i := strings.Index(body, marker)
	if i < 0 {
		t.Fatal("no discussion island")
	}
	j := strings.Index(body[i:], "</script>")
	var wd wire.Discussion
	if err := json.Unmarshal([]byte(body[i+len(marker):i+j]), &wd); err != nil {
		t.Fatal(err)
	}
	if wd.ID != d.ID || wd.Title != d.Title || len(wd.Comments) != len(d.Comments) {
		t.Errorf("payload mismatch: %+v", wd)
	}
	for k, c := range d.Comments {
		if wd.Comments[k].Body != c.Body {
			t.Errorf("comment %d body mismatch", k)
		}
		if wd.Comments[k].Replies != c.Replies || wd.Comments[k].Feedbacks != c.Feedbacks {
			t.Errorf("comment %d counters mismatch", k)
		}
	}
}

func TestRSSFeedServed(t *testing.T) {
	world, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/s/1/feed.rss")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "rss") {
		t.Errorf("content type = %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	f, err := feed.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.Format != feed.FormatRSS {
		t.Errorf("format = %v", f.Format)
	}
	if len(f.Items) != len(world.Sources[1].Discussions) {
		t.Errorf("feed items = %d, want %d", len(f.Items), len(world.Sources[1].Discussions))
	}
}

func TestAtomFeedServed(t *testing.T) {
	world, ts := newTestServer(t)
	_, body := get(t, ts.URL+"/s/1/feed.atom")
	f, err := feed.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if f.Format != feed.FormatAtom {
		t.Errorf("format = %v", f.Format)
	}
	if len(f.Items) != len(world.Sources[1].Discussions) {
		t.Errorf("feed items = %d", len(f.Items))
	}
}

func TestNotFoundCases(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{
		"/s/9999/", "/s/abc/", "/s/0/d/999999", "/s/0/d/xyz", "/s/0/unknown", "/nope",
	} {
		code, _ := get(t, ts.URL+path)
		if code != 404 {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

func TestRootAndRobots(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/")
	if code != 200 || !strings.Contains(body, "sitemap") {
		t.Errorf("root page wrong: %d", code)
	}
	code, body = get(t, ts.URL+"/robots.txt")
	if code != 200 || !strings.Contains(body, "User-agent") {
		t.Errorf("robots wrong: %d %q", code, body)
	}
}

func TestGeoCoordinatesInPayload(t *testing.T) {
	world, ts := newTestServer(t)
	// Find a geo-tagged comment.
	for _, src := range world.Sources {
		for _, d := range src.Discussions {
			for ci, c := range d.Comments {
				if c.Geo == nil {
					continue
				}
				_, body := get(t, fmt.Sprintf("%s/s/%d/d/%d", ts.URL, src.ID, d.ID))
				marker := `<script type="application/x-discussion+json">`
				i := strings.Index(body, marker)
				j := strings.Index(body[i:], "</script>")
				var wd wire.Discussion
				if err := json.Unmarshal([]byte(body[i+len(marker):i+j]), &wd); err != nil {
					t.Fatal(err)
				}
				got := wd.Comments[ci]
				if got.Lat == nil || got.Lon == nil {
					t.Fatal("geo lost in serialization")
				}
				if *got.Lat != c.Geo.Lat || *got.Lon != c.Geo.Lon {
					t.Errorf("geo mismatch: %v,%v vs %+v", *got.Lat, *got.Lon, c.Geo)
				}
				return
			}
		}
	}
	t.Skip("no geo-tagged comments in this seed")
}

func TestETagAndNotModified(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/s/0/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on index page")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/s/0/", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp2.StatusCode)
	}
	if len(body) != 0 {
		t.Errorf("304 carried a body of %d bytes", len(body))
	}

	// RFC 9110 §13.1.2 forms: a list, a weak tag and "*" all match.
	for _, inm := range []string{`"deadbeef", ` + etag, "W/" + etag, "*"} {
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Errorf("If-None-Match %s: status = %d, want 304", inm, resp.StatusCode)
		}
	}

	// A stale ETag gets the full page again.
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != 200 || len(body3) == 0 {
		t.Errorf("stale etag: status %d, %d bytes", resp3.StatusCode, len(body3))
	}

	// Errors are not ETagged.
	resp4, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != 404 {
		t.Errorf("status = %d", resp4.StatusCode)
	}
}

// TestHeadCarriesETag pins HEAD to GET's validators: the same ETag, a 304
// for a matching If-None-Match, and no body either way.
func TestHeadCarriesETag(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 5, NumSources: 8, NumUsers: 30, CommentText: true})
	srv := New(world)
	serve := func(method, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, "/s/0/", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	full := serve(http.MethodGet, "")
	tag := full.Header().Get("ETag")
	if full.Code != http.StatusOK || tag == "" || full.Body.Len() == 0 {
		t.Fatalf("GET: status %d, ETag %q, %d bytes", full.Code, tag, full.Body.Len())
	}
	head := serve(http.MethodHead, "")
	if head.Code != http.StatusOK || head.Header().Get("ETag") != tag {
		t.Fatalf("HEAD: status %d, ETag %q, want 200 and GET's %q", head.Code, head.Header().Get("ETag"), tag)
	}
	cond := serve(http.MethodHead, tag)
	if cond.Code != http.StatusNotModified {
		t.Fatalf("conditional HEAD: status %d, want 304", cond.Code)
	}
	for name, rec := range map[string]*httptest.ResponseRecorder{"HEAD": head, "conditional HEAD": cond} {
		if rec.Body.Len() != 0 {
			t.Errorf("%s carried a body of %d bytes", name, rec.Body.Len())
		}
	}
}
