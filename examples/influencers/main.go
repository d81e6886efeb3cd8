// Influencers: the contributor model of Table 2 and the spam-resistance
// argument of Section 3.2. Generates a corpus with injected spam bots,
// then contrasts the naive activity-volume influencer ranking with the
// paper's combined absolute x relative strategy.
//
//	go run ./examples/influencers
package main

import (
	"fmt"
	"log"

	informer "github.com/informing-observers/informer"
)

func main() {
	// 20% of users behave like spam bots: huge posting volume, no
	// reactions from anyone.
	c := informer.New(informer.Config{
		Seed:       11,
		NumSources: 80,
		NumUsers:   300,
		SpamRate:   0.2,
	})

	show := func(title string, infs []informer.Influencer) {
		fmt.Println(title)
		spam := 0
		for i, inf := range infs {
			tag := ""
			if inf.Record.Spammer {
				tag = "  <-- SPAM BOT"
				spam++
			}
			fmt.Printf("%3d. %-28s influence %.3f  interactions %4d  replies %4d%s\n",
				i+1, inf.Record.Name, inf.InfluenceScore,
				inf.Record.Interactions, inf.Record.RepliesReceived, tag)
		}
		fmt.Printf("     -> %d/%d spam bots in the top list\n\n", spam, len(infs))
	}

	top10 := func(s informer.InfluencerStrategy) []informer.Influencer {
		infs, err := c.Influencers(informer.NewQuery().SortByInfluence(s).MinInteractions(1).TopK(10).Build())
		if err != nil {
			log.Fatal(err)
		}
		return infs
	}
	show("Naive ranking by absolute activity volume:", top10(informer.ByActivity))
	show("The paper's combined strategy (absolute x relative):", top10(informer.Combined))

	// The microblog path: the Table 4 dataset assessed with Table 2
	// measures.
	ds, records := informer.GenerateMicroblog(informer.MicroblogConfig{Seed: 3, NumAccounts: 813})
	ranked := informer.AssessMicroblog(records)
	fmt.Println("Top microblog accounts by Table 2 overall quality:")
	for i, a := range ranked {
		if i >= 8 {
			break
		}
		kind := ds.Accounts[a.ID].Kind
		fmt.Printf("%3d. %-28s score %.3f  (%s)\n", i+1, a.Name, a.Score, kind)
	}
}
