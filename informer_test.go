package informer

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	return New(Config{Seed: 77, NumSources: 30, NumUsers: 90, CommentText: true})
}

// allSources is the full best-first source ranking: QuerySources with the
// zero Query.
func allSources(tb testing.TB, c *Corpus) []*Assessment {
	tb.Helper()
	res, err := c.QuerySources(Query{})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Items
}

// allContributors is the full best-first contributor ranking.
func allContributors(tb testing.TB, c *Corpus) []*Assessment {
	tb.Helper()
	res, err := c.QueryContributors(Query{})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Items
}

func TestNewCorpusDefaults(t *testing.T) {
	c := New(Config{NumSources: 10})
	if len(c.World().Sources) != 10 {
		t.Fatalf("sources = %d", len(c.World().Sources))
	}
	if len(c.DI.Categories) != 6 {
		t.Errorf("DI should default to the world's categories: %v", c.DI.Categories)
	}
}

func TestRankSourcesFacade(t *testing.T) {
	c := testCorpus(t)
	ranked := allSources(t, c)
	if len(ranked) != 30 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("not sorted")
		}
	}
	a, ok := c.AssessSource(ranked[0].ID)
	if !ok || a.Score != ranked[0].Score {
		t.Error("AssessSource disagrees with the source ranking")
	}
	if _, ok := c.AssessSource(-1); ok {
		t.Error("negative id should miss")
	}
}

func TestRankContributorsFacade(t *testing.T) {
	c := testCorpus(t)
	ranked := allContributors(t, c)
	if len(ranked) != 90 {
		t.Fatalf("ranked = %d", len(ranked))
	}
	if _, ok := c.AssessContributor(0); !ok {
		t.Error("AssessContributor(0) should exist")
	}
	if _, ok := c.AssessContributor(9999); ok {
		t.Error("out-of-range contributor should miss")
	}
}

func TestInfluencersFacade(t *testing.T) {
	c := testCorpus(t)
	infs, err := c.Influencers(NewQuery().SortByInfluence(Combined).MinInteractions(1).TopK(5).Build())
	if err != nil {
		t.Fatal(err)
	}
	if len(infs) == 0 || len(infs) > 5 {
		t.Fatalf("influencers = %d", len(infs))
	}
}

func TestSearchFacade(t *testing.T) {
	c := testCorpus(t)
	res := c.Search("hotel metro milan", 5)
	if len(res) == 0 {
		t.Skip("no hits for this seed")
	}
	if len(res) > 5 {
		t.Errorf("k not respected")
	}
}

func TestSentimentByCategory(t *testing.T) {
	c := testCorpus(t)
	ind := c.SentimentByCategory()
	if len(ind) == 0 {
		t.Fatal("no indicators")
	}
	for cat, i := range ind {
		if i.Mean < -1 || i.Mean > 1 {
			t.Errorf("%s mean %v out of range", cat, i.Mean)
		}
		if i.N == 0 {
			t.Errorf("%s has zero comments", cat)
		}
	}
}

func TestMashupFacade(t *testing.T) {
	c := testCorpus(t)
	comp := `{
	  "name": "facade-demo",
	  "components": [
	    {"id": "src", "type": "comments", "params": {"top_sources": 5}},
	    {"id": "senti", "type": "sentiment"},
	    {"id": "view", "type": "indicator-viewer", "title": "Indicators"}
	  ],
	  "wires": [
	    {"from": "src.out", "to": "senti.in"},
	    {"from": "senti.indicators", "to": "view.in"}
	  ]
	}`
	d, err := c.RunMashup([]byte(comp))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := d.View("view"); !ok || len(v.Items) == 0 {
		t.Fatal("no indicators in dashboard")
	}
	if !strings.Contains(d.Render(), "Indicators") {
		t.Error("render incomplete")
	}
	if _, err := c.RunMashup([]byte("{")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestEmitSelectFacade(t *testing.T) {
	c := testCorpus(t)
	comp := `{
	  "name": "sel",
	  "components": [
	    {"id": "src", "type": "comments", "params": {"top_sources": 3}},
	    {"id": "sel", "type": "event-filter", "params": {"item_key": "author_id", "payload_key": "author_id"}},
	    {"id": "view", "type": "list-viewer"}
	  ],
	  "wires": [
	    {"from": "src.out", "to": "sel.in"},
	    {"from": "sel.out", "to": "view.in"}
	  ],
	  "sync": [{"source": "view", "target": "sel"}]
	}`
	rt, err := c.NewMashup([]byte(comp))
	if err != nil {
		t.Fatal(err)
	}
	d, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	v, _ := d.View("view")
	if len(v.Items) == 0 {
		t.Skip("empty stream for this seed")
	}
	before := len(v.Items)
	d, err = EmitSelect(rt, "view", v.Items[0])
	if err != nil {
		t.Fatal(err)
	}
	v, _ = d.View("view")
	if len(v.Items) == 0 || len(v.Items) > before {
		t.Errorf("selection should narrow: %d -> %d", before, len(v.Items))
	}
}

func TestCrawlRoundTrip(t *testing.T) {
	c := New(Config{Seed: 78, NumSources: 8, CommentText: true})
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	records, err := c.Crawl(context.Background(), ts.URL, CrawlOptions{FetchFeeds: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 8 {
		t.Fatalf("crawled %d sources", len(records))
	}
	res, err := QueryRecords(records, c.DI, Query{})
	if err != nil {
		t.Fatal(err)
	}
	ranked := res.Items
	if len(ranked) != 8 {
		t.Fatalf("assessed %d", len(ranked))
	}
	for _, a := range ranked {
		if a.Score < 0 || a.Score > 1 {
			t.Errorf("score %v out of range", a.Score)
		}
	}
}

func TestPanelHandlerFacade(t *testing.T) {
	c := New(Config{Seed: 79, NumSources: 4})
	ts := httptest.NewServer(c.PanelHandler())
	defer ts.Close()
	resp, err := httpGet(ts.URL + "/metrics?host=" + c.World().Sources[0].Host)
	if err != nil {
		t.Fatal(err)
	}
	if resp != 200 {
		t.Errorf("status %d", resp)
	}
}

func TestMicroblogFacade(t *testing.T) {
	ds, records := GenerateMicroblog(MicroblogConfig{Seed: 3, NumAccounts: 100})
	if len(ds.Accounts) != 100 || len(records) != 100 {
		t.Fatalf("dataset sizes: %d accounts, %d records", len(ds.Accounts), len(records))
	}
	ranked := AssessMicroblog(records)
	if len(ranked) != 100 {
		t.Fatalf("ranked %d", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("not sorted")
		}
	}
}

// httpGet returns just the status code of a GET.
func httpGet(url string) (int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

func TestAdvanceMonitoringLoop(t *testing.T) {
	c := New(Config{Seed: 81, NumSources: 40, CommentText: true})
	rep1 := c.SourceReport()
	if len(rep1.Entries) != 40 {
		t.Fatalf("report entries = %d", len(rep1.Entries))
	}

	c2 := c.Advance(30, 811)
	rep2 := c2.SourceReport()
	if !rep2.GeneratedAt.After(rep1.GeneratedAt) {
		t.Error("advanced report should carry a later timestamp")
	}
	shift := RankShift(rep1, rep2)
	if len(shift) != 40 {
		t.Fatalf("shift covers %d sources", len(shift))
	}
	moved := 0
	for _, d := range shift {
		if d != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("a month of fresh activity should move at least one rank")
	}

	// Round-trip the report through JSON.
	var buf bytes.Buffer
	if err := rep2.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(rep2.Entries) {
		t.Error("report round trip lost entries")
	}
}

func TestTrendingTerms(t *testing.T) {
	c := New(Config{Seed: 82, NumSources: 50, CommentText: true})
	terms := c.TrendingTerms("prerequisites", 8)
	if len(terms) == 0 {
		t.Fatal("no trending terms")
	}
	if len(terms) > 8 {
		t.Fatalf("k not respected: %d", len(terms))
	}
	// The category's marker vocabulary should buzz against the corpus.
	markers := map[string]bool{
		"hotel": true, "transport": true, "metro": true, "airport": true,
		"taxi": true, "wifi": true, "accommodation": true, "restaurant": true,
		"prerequisites": true,
	}
	hits := 0
	for _, tm := range terms {
		if markers[tm.Word] {
			hits++
		}
		if tm.Score <= 0 {
			t.Errorf("non-positive buzz score for %q", tm.Word)
		}
	}
	if hits < 3 {
		t.Errorf("only %d/8 trending terms are category markers: %v", hits, terms)
	}
}
