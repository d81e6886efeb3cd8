package services

import (
	"strings"
	"testing"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/mashup"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/webgen"
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	world := webgen.Generate(webgen.Config{
		Seed:        51,
		NumSources:  40,
		NumUsers:    120,
		CommentText: true,
	})
	panel := analytics.Build(world, 151)
	di := quality.DomainOfInterest{Categories: world.Categories}
	return NewEnv(world, panel, di)
}

func TestNewEnvAssessesEverything(t *testing.T) {
	env := testEnv(t)
	if len(env.scores) != 40 {
		t.Fatalf("source scores = %d", len(env.scores))
	}
	for id, s := range env.scores {
		if s < 0 || s > 1 {
			t.Errorf("source %d score %v out of range", id, s)
		}
	}
	if len(env.ContributorRecords) != 120 {
		t.Errorf("contributor records = %d", len(env.ContributorRecords))
	}
	if env.Contributors == nil || env.Analyzer == nil {
		t.Error("env incomplete")
	}
}

func TestCommentSourceByKind(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	c, err := reg.New("comments", mashup.Params{"kind": "forum"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Process(&mashup.Context{}, mashup.Inputs{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["out"]) == 0 {
		t.Fatal("no forum comments")
	}
	for _, it := range out["out"] {
		if it["kind"] != "forum" {
			t.Errorf("leaked kind %v", it["kind"])
		}
		if _, ok := it["text"].(string); !ok {
			t.Error("missing text field")
		}
		if _, ok := it.Float("quality"); !ok {
			t.Error("missing quality field")
		}
	}
}

func TestCommentSourceTopSources(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	c, err := reg.New("comments", mashup.Params{"top_sources": 3})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Process(&mashup.Context{}, mashup.Inputs{})
	seen := map[int]bool{}
	for _, it := range out["out"] {
		id, _ := it.Float("source_id")
		seen[int(id)] = true
	}
	if len(seen) > 3 {
		t.Errorf("top_sources leaked %d sources", len(seen))
	}
	// The selected sources must be the globally best-scoring ones.
	var best []int
	for id := range env.scores {
		best = append(best, id)
	}
	// Find the maximum score among non-selected; must not exceed the
	// minimum among selected.
	minSel, maxUnsel := 2.0, -1.0
	for id, s := range env.scores {
		if seen[id] {
			if s < minSel {
				minSel = s
			}
		} else if s > maxUnsel {
			maxUnsel = s
		}
	}
	_ = best
	if maxUnsel > minSel {
		t.Errorf("top_sources not quality-ordered: unselected %v > selected %v", maxUnsel, minSel)
	}
}

func TestCommentSourceExplicitIDsAndLimit(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	c, err := reg.New("comments", mashup.Params{"source_ids": []any{float64(0), float64(1)}, "limit": 5})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := c.Process(&mashup.Context{}, mashup.Inputs{})
	if len(out["out"]) > 5 {
		t.Errorf("limit not applied: %d", len(out["out"]))
	}
	for _, it := range out["out"] {
		id, _ := it.Float("source_id")
		if int(id) != 0 && int(id) != 1 {
			t.Errorf("leaked source %v", id)
		}
	}
	if _, err := reg.New("comments", mashup.Params{"source_ids": []any{"x"}}); err == nil {
		t.Error("bad source_ids should fail")
	}
}

func TestQualityFilter(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	f, _ := reg.New("quality-filter", mashup.Params{"min_quality": 0.5})
	items := []mashup.Item{
		{"title": "good", "quality": 0.9},
		{"title": "bad", "quality": 0.2},
		{"title": "no-quality-field"},
	}
	out, err := f.Process(&mashup.Context{}, mashup.Inputs{"in": items})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["out"]) != 1 || out["out"][0]["title"] != "good" {
		t.Errorf("filtered = %v", out["out"])
	}
}

func TestInfluencerFilter(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	f, err := reg.New("influencer-filter", mashup.Params{"top": 5})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := reg.New("comments", mashup.Params{})
	all, _ := src.Process(&mashup.Context{}, mashup.Inputs{})
	out, err := f.Process(&mashup.Context{}, mashup.Inputs{"in": all["out"]})
	if err != nil {
		t.Fatal(err)
	}
	roster := out["influencers"]
	if len(roster) == 0 || len(roster) > 5 {
		t.Fatalf("roster = %d", len(roster))
	}
	rosterIDs := map[int]bool{}
	for _, r := range roster {
		id, _ := r.Float("author_id")
		rosterIDs[int(id)] = true
		if _, ok := r.Float("score"); !ok {
			t.Error("roster item missing score")
		}
	}
	if len(out["out"]) == 0 {
		t.Fatal("no influencer comments survived")
	}
	for _, it := range out["out"] {
		id, _ := it.Float("author_id")
		if !rosterIDs[int(id)] {
			t.Errorf("comment by non-influencer %v passed", id)
		}
	}
	if len(out["out"]) >= len(all["out"]) {
		t.Error("filter did not reduce the stream")
	}
}

func TestInfluencerFilterBadStrategy(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	if _, err := reg.New("influencer-filter", mashup.Params{"strategy": "magic"}); err == nil {
		t.Error("unknown strategy should fail")
	}
	if _, err := reg.New("influencer-filter", mashup.Params{"strategy": "by-activity"}); err != nil {
		t.Errorf("by-activity should work: %v", err)
	}
}

func TestSentimentService(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	s, _ := reg.New("sentiment", nil)
	src, _ := reg.New("comments", mashup.Params{"kind": "blog"})
	all, _ := src.Process(&mashup.Context{}, mashup.Inputs{})
	out, err := s.Process(&mashup.Context{}, mashup.Inputs{"in": all["out"]})
	if err != nil {
		t.Fatal(err)
	}
	if len(out["out"]) != len(all["out"]) {
		t.Fatalf("scored %d of %d", len(out["out"]), len(all["out"]))
	}
	for _, it := range out["out"] {
		v, ok := it.Float("sentiment")
		if !ok || v < -1 || v > 1 {
			t.Errorf("sentiment field wrong: %v", it["sentiment"])
		}
		if _, ok := it["polarity"].(int); !ok {
			t.Error("missing polarity")
		}
	}
	if len(out["indicators"]) == 0 {
		t.Fatal("no indicators")
	}
	for _, ind := range out["indicators"] {
		if _, ok := ind["label"].(string); !ok {
			t.Error("indicator missing label")
		}
		v, ok := ind.Float("value")
		if !ok || v < -1 || v > 1 {
			t.Errorf("indicator value %v", ind["value"])
		}
	}
}

func TestSentimentGroundTruthAgreement(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	s, _ := reg.New("sentiment", nil)
	src, _ := reg.New("comments", nil)
	all, _ := src.Process(&mashup.Context{}, mashup.Inputs{})
	out, _ := s.Process(&mashup.Context{}, mashup.Inputs{"in": all["out"]})

	// Compare scored polarity against the generator's ground truth.
	truth := map[int]int{}
	for _, srcW := range env.World.Sources {
		for _, d := range srcW.Discussions {
			for _, c := range d.Comments {
				truth[c.ID] = c.Polarity
			}
		}
	}
	// Items don't carry comment IDs, so rebuild by matching: instead,
	// check aggregate agreement — the share of nonzero polarities that
	// match the generator's distribution sign-wise.
	var scoredPos, scoredNeg int
	for _, it := range out["out"] {
		switch it["polarity"].(int) {
		case 1:
			scoredPos++
		case -1:
			scoredNeg++
		}
	}
	var truePos, trueNeg int
	for _, p := range truth {
		switch p {
		case 1:
			truePos++
		case -1:
			trueNeg++
		}
	}
	// Shares within 15 percentage points of ground truth.
	n := float64(len(out["out"]))
	tp, tn := float64(truePos)/float64(len(truth)), float64(trueNeg)/float64(len(truth))
	if diff := float64(scoredPos)/n - tp; diff < -0.15 || diff > 0.15 {
		t.Errorf("positive share off: scored %.2f vs truth %.2f", float64(scoredPos)/n, tp)
	}
	if diff := float64(scoredNeg)/n - tn; diff < -0.15 || diff > 0.15 {
		t.Errorf("negative share off: scored %.2f vs truth %.2f", float64(scoredNeg)/n, tn)
	}
}

// TestFigureOneComposition wires the full Figure 1 dashboard: two data
// sources (social-network and review-site, the Twitter and TripAdvisor
// stand-ins), influencer filtering, synced list + map viewers, and a posts
// list that narrows when an influencer is selected.
func TestFigureOneComposition(t *testing.T) {
	env := testEnv(t)
	reg := NewRegistry(env)
	compJSON := `{
	  "name": "figure-1",
	  "components": [
	    {"id": "twitter", "type": "comments", "params": {"kind": "social-network"}},
	    {"id": "tripadvisor", "type": "comments", "params": {"kind": "review-site"}},
	    {"id": "merge", "type": "union"},
	    {"id": "inf", "type": "influencer-filter", "params": {"top": 8}},
	    {"id": "infList", "type": "list-viewer", "title": "Influencers"},
	    {"id": "infMap", "type": "map-viewer", "title": "Influencer locations"},
	    {"id": "postSel", "type": "event-filter", "params": {"item_key": "author_id", "payload_key": "author_id"}},
	    {"id": "postList", "type": "list-viewer", "title": "Posts"},
	    {"id": "postMap", "type": "map-viewer", "title": "Post locations"}
	  ],
	  "wires": [
	    {"from": "twitter.out", "to": "merge.in"},
	    {"from": "tripadvisor.out", "to": "merge.in2"},
	    {"from": "merge.out", "to": "inf.in"},
	    {"from": "inf.influencers", "to": "infList.in"},
	    {"from": "inf.influencers", "to": "infMap.in"},
	    {"from": "inf.out", "to": "postSel.in"},
	    {"from": "postSel.out", "to": "postList.in"},
	    {"from": "postSel.out", "to": "postMap.in"}
	  ],
	  "sync": [
	    {"source": "infList", "event": "select", "target": "postSel"}
	  ]
	}`
	comp, err := mashup.ParseComposition([]byte(compJSON))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := mashup.NewRuntime(comp, reg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	infList, _ := d.View("infList")
	if len(infList.Items) == 0 {
		t.Fatal("no influencers in list")
	}
	postList, _ := d.View("postList")
	allPosts := len(postList.Items)
	if allPosts == 0 {
		t.Fatal("no influencer posts")
	}

	// Select the first influencer: the posts list must narrow to theirs.
	selected := infList.Items[0]
	d, err = rt.Emit(mashup.Event{Source: "infList", Name: "select", Payload: selected})
	if err != nil {
		t.Fatal(err)
	}
	postList, _ = d.View("postList")
	if len(postList.Items) == 0 {
		t.Fatal("selection produced no posts")
	}
	wantID, _ := selected.Float("author_id")
	for _, it := range postList.Items {
		gotID, _ := it.Float("author_id")
		if gotID != wantID {
			t.Errorf("post by %v leaked into selection of %v", gotID, wantID)
		}
	}
	if strings.TrimSpace(d.Render()) == "" {
		t.Error("dashboard renders empty")
	}
}
