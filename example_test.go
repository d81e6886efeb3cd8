package informer_test

import (
	"fmt"

	informer "github.com/informing-observers/informer"
)

// ExampleNew shows the minimal assess-and-rank loop.
func ExampleNew() {
	c := informer.New(informer.Config{Seed: 2024, NumSources: 20})
	res, err := c.QuerySources(informer.Query{})
	if err != nil {
		panic(err)
	}
	ranked := res.Items
	fmt.Println("sources assessed:", len(ranked))
	fmt.Println("best score is a fraction:", ranked[0].Score > 0 && ranked[0].Score <= 1)
	// Output:
	// sources assessed: 20
	// best score is a fraction: true
}

// ExampleCorpus_Influencers demonstrates spam-resistant influencer
// detection (Section 3.2 of the paper).
func ExampleCorpus_Influencers() {
	c := informer.New(informer.Config{Seed: 11, NumSources: 40, NumUsers: 200, SpamRate: 0.2})
	top, err := c.Influencers(informer.NewQuery().
		SortByInfluence(informer.Combined).MinInteractions(1).TopK(5).Build())
	if err != nil {
		panic(err)
	}
	spam := 0
	for _, inf := range top {
		if inf.Record.Spammer {
			spam++
		}
	}
	fmt.Println("influencers:", len(top), "spam bots among them:", spam)
	// Output:
	// influencers: 5 spam bots among them: 0
}

// ExampleCorpus_Advance runs the paper's monitoring loop incrementally:
// archive the current ranking as a report, let a week of activity arrive
// (Advance re-assesses only the delta, swapping the assessment snapshot
// atomically under any concurrent readers), then diff the rankings with
// RankShift.
func ExampleCorpus_Advance() {
	c := informer.New(informer.Config{Seed: 81, NumSources: 40})
	before := c.SourceReport()

	c.Advance(7, 811) // a week of fresh discussions and comments

	after := c.SourceReport()
	delta := c.LastDelta()
	shift := informer.RankShift(before, after)
	moved := 0
	for _, d := range shift {
		if d != 0 {
			moved++
		}
	}
	fmt.Println("round 1:", before.GeneratedAt.Format("2006-01-02"),
		"- round 2:", after.GeneratedAt.Format("2006-01-02"))
	fmt.Println("tick touched some sources:", len(delta.DirtySourceIDs()) > 0)
	fmt.Println("shift tracked for every source:", len(shift) == 40)
	fmt.Println("a week of activity moved some ranks:", moved > 0)
	// Output:
	// round 1: 2011-10-01 - round 2: 2011-10-08
	// tick touched some sources: true
	// shift tracked for every source: true
	// a week of activity moved some ranks: true
}

// ExampleCorpus_RunMashup executes a small JSON composition.
func ExampleCorpus_RunMashup() {
	c := informer.New(informer.Config{Seed: 7, NumSources: 20, CommentText: true})
	dash, err := c.RunMashup([]byte(`{
	  "name": "demo",
	  "components": [
	    {"id": "src", "type": "comments", "params": {"top_sources": 3}},
	    {"id": "senti", "type": "sentiment"},
	    {"id": "view", "type": "indicator-viewer", "title": "Sentiment"}
	  ],
	  "wires": [
	    {"from": "src.out", "to": "senti.in"},
	    {"from": "senti.indicators", "to": "view.in"}
	  ]
	}`))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	v, _ := dash.View("view")
	fmt.Println("dashboard:", dash.Name, "— indicator categories:", len(v.Items) > 0)
	// Output:
	// dashboard: demo — indicator categories: true
}
