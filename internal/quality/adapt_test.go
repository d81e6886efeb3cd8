package quality

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/crawler"
	"github.com/informing-observers/informer/internal/social"
	"github.com/informing-observers/informer/internal/webgen"
	"github.com/informing-observers/informer/internal/webserve"
)

func TestSourceRecordsFromWorld(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 31, NumSources: 25})
	panel := analytics.Build(w, 131)
	records := SourceRecordsFromWorld(w, panel)
	if len(records) != 25 {
		t.Fatalf("records = %d", len(records))
	}
	for i, r := range records {
		src := w.Sources[i]
		if r.ID != src.ID || r.Host != src.Host {
			t.Fatalf("record %d identity mismatch", i)
		}
		if len(r.Discussions) != len(src.Discussions) {
			t.Errorf("record %d: %d discussions, want %d", i, len(r.Discussions), len(src.Discussions))
		}
		if r.TotalComments() != src.CommentCount() {
			t.Errorf("record %d comment count mismatch", i)
		}
		if r.OpenDiscussions() != src.OpenDiscussions() {
			t.Errorf("record %d open mismatch", i)
		}
		if r.InboundLinks != len(src.Inbound) {
			t.Errorf("record %d inbound mismatch", i)
		}
		if r.MaxOpenDiscussions != w.MaxOpenDiscussions {
			t.Errorf("record %d MaxOpenDiscussions = %d", i, r.MaxOpenDiscussions)
		}
		m, _ := panel.BySource(i)
		if r.Panel.TrafficRank != m.TrafficRank || r.Panel.BounceRate != m.BounceRate {
			t.Errorf("record %d panel mismatch", i)
		}
	}
}

// TestCrawledRecordsMatchWorldRecords is the key integration property: the
// measure inputs assembled from a genuine HTTP crawl must equal the ones
// assembled directly from the in-memory world.
func TestCrawledRecordsMatchWorldRecords(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 32, NumSources: 12, CommentText: true})
	panel := analytics.Build(w, 132)
	ts := httptest.NewServer(webserve.New(w))
	defer ts.Close()

	snap, err := crawler.Crawl(context.Background(), crawler.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Errs) > 0 {
		t.Fatalf("crawl errors: %v", snap.Errs)
	}
	fromCrawl := SourceRecordsFromSnapshot(snap, panel, w.Config.End)
	fromWorld := SourceRecordsFromWorld(w, panel)
	if len(fromCrawl) != len(fromWorld) {
		t.Fatalf("lengths differ: %d vs %d", len(fromCrawl), len(fromWorld))
	}

	di := DomainOfInterest{Categories: w.Categories}
	for i := range fromWorld {
		for _, m := range SourceMeasures() {
			vw, okw := m.Eval(fromWorld[i], &di)
			vc, okc := m.Eval(fromCrawl[i], &di)
			if okw != okc {
				t.Errorf("source %d measure %s: definedness differs (world %v, crawl %v)", i, m.ID, okw, okc)
				continue
			}
			if !okw {
				continue
			}
			diff := vw - vc
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-9 {
				t.Errorf("source %d measure %s: world %v != crawl %v", i, m.ID, vw, vc)
			}
		}
	}
}

func TestContributorRecordsFromWorld(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 33, NumSources: 30, NumUsers: 80})
	recs := ContributorRecordsFromWorld(w)
	if len(recs) != 80 {
		t.Fatalf("records = %d", len(recs))
	}
	// Cross-check one aggregate: total interactions across users equals
	// total comments across sources.
	totalComments := 0
	for _, s := range w.Sources {
		totalComments += s.CommentCount()
	}
	totalInteractions := 0
	totalOpened := 0
	totalDiscussions := 0
	for _, r := range recs {
		totalInteractions += r.Interactions
		totalOpened += r.DiscussionsOpened
		if r.Interactions != r.TotalComments() {
			t.Errorf("user %d: interactions %d != comments %d", r.ID, r.Interactions, r.TotalComments())
		}
		if r.DiscussionsTouched > r.Interactions {
			t.Errorf("user %d touched more discussions than comments made", r.ID)
		}
	}
	for _, s := range w.Sources {
		totalDiscussions += len(s.Discussions)
	}
	if totalInteractions != totalComments {
		t.Errorf("interactions %d != comments %d", totalInteractions, totalComments)
	}
	if totalOpened != totalDiscussions {
		t.Errorf("opened %d != discussions %d", totalOpened, totalDiscussions)
	}
}

func TestContributorRecordsFromWorldSpamFlag(t *testing.T) {
	w := webgen.Generate(webgen.Config{Seed: 34, NumSources: 20, NumUsers: 100, SpamRate: 0.3})
	recs := ContributorRecordsFromWorld(w)
	spam := 0
	for i, r := range recs {
		if r.Spammer != w.Users[i].Spammer {
			t.Fatalf("spam flag lost for user %d", i)
		}
		if r.Spammer {
			spam++
		}
	}
	if spam == 0 {
		t.Error("no spammers carried through")
	}
}

func TestContributorRecordsFromSocial(t *testing.T) {
	ds := social.Generate(social.Config{Seed: 35, NumAccounts: 100})
	obs := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	recs := ContributorRecordsFromSocial(ds, obs)
	if len(recs) != 100 {
		t.Fatalf("records = %d", len(recs))
	}
	for i, r := range recs {
		a := ds.Accounts[i]
		if r.Interactions != a.Interactions {
			t.Errorf("account %d interactions mismatch", i)
		}
		if r.RepliesReceived != a.MentionsReceived || r.FeedbacksReceived != a.RetweetsReceived {
			t.Errorf("account %d reactions mismatch", i)
		}
		// Relative measures must agree with the social package's own.
		if a.Interactions > 0 {
			m, _ := ContributorMeasureByID("usr.authority.relevance")
			v, ok := m.Eval(r, &DomainOfInterest{})
			if !ok || v != a.RelativeMentions() {
				t.Errorf("account %d relative mentions: %v vs %v", i, v, a.RelativeMentions())
			}
		}
	}
}
