// Command informer-rank generates (or crawls) a Web 2.0 corpus and prints
// quality rankings of its sources and contributors through the composable
// query API — filters execute below the ranking, so -top never assesses
// more than it prints:
//
//	informer-rank -sources 100 -top 15
//	informer-rank -min-score 0.6 -category place -top 10
//	informer-rank -sort dim.time -top 10      # rank by the time dimension
//	informer-rank -crawl http://127.0.0.1:8080 -top 10
//	informer-rank -show 3            # full Table 1 assessment of source 3
//	informer-rank -influencers 10    # top opinion leaders
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	informer "github.com/informing-observers/informer"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "corpus seed")
		sources     = flag.Int("sources", 100, "number of sources to generate")
		users       = flag.Int("users", 0, "number of users (default 2x sources)")
		top         = flag.Int("top", 10, "how many ranked entries to print")
		minScore    = flag.Float64("min-score", 0, "only sources whose overall score clears this bar")
		category    = flag.String("category", "", "only sources active in this content category")
		kind        = flag.String("kind", "", "only sources of this kind (blog, forum, review-site, social-network)")
		sortAxis    = flag.String("sort", "score", "ranking axis: score, dim.<dimension> or att.<attribute>")
		show        = flag.Int("show", -1, "print the full assessment of this source ID")
		influencers = flag.Int("influencers", 0, "print the top-N influencers")
		crawl       = flag.String("crawl", "", "crawl this base URL instead of assessing in memory")
		reportPath  = flag.String("report", "", "write the full ranking as a JSON report to this file")
	)
	flag.Parse()

	c := informer.New(informer.Config{
		Seed:        *seed,
		NumSources:  *sources,
		NumUsers:    *users,
		CommentText: true,
	})

	// Compose the declarative query once; it runs identically against the
	// in-memory corpus or externally crawled records.
	qb := informer.NewQuery().TopK(*top).MinScore(*minScore)
	if *category != "" {
		qb.Categories(*category)
	}
	if *kind != "" {
		qb.Kinds(*kind)
	}
	switch {
	case *sortAxis == "" || *sortAxis == "score":
	case strings.HasPrefix(*sortAxis, "dim."):
		d, ok := informer.ParseDimension(strings.TrimPrefix(*sortAxis, "dim."))
		if !ok {
			fmt.Fprintf(os.Stderr, "informer-rank: unknown dimension in -sort %q\n", *sortAxis)
			os.Exit(1)
		}
		qb.SortByDimension(d)
	case strings.HasPrefix(*sortAxis, "att."):
		at, ok := informer.ParseAttribute(strings.TrimPrefix(*sortAxis, "att."))
		if !ok {
			fmt.Fprintf(os.Stderr, "informer-rank: unknown attribute in -sort %q\n", *sortAxis)
			os.Exit(1)
		}
		qb.SortByAttribute(at)
	default:
		fmt.Fprintf(os.Stderr, "informer-rank: bad -sort %q\n", *sortAxis)
		os.Exit(1)
	}
	q := qb.Build()

	var res *informer.QueryResult
	var err error
	if *crawl != "" {
		records, cerr := c.Crawl(context.Background(), *crawl, informer.CrawlOptions{FetchFeeds: true})
		if cerr != nil {
			fmt.Fprintln(os.Stderr, "informer-rank:", cerr)
			os.Exit(1)
		}
		res, err = informer.QueryRecords(records, c.DI, q)
		if err == nil {
			fmt.Printf("crawled %d sources from %s\n\n", len(records), *crawl)
		}
	} else {
		res, err = c.QuerySources(q)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "informer-rank:", err)
		os.Exit(1)
	}

	fmt.Printf("top %d of %d matching sources (sort: %s):\n", len(res.Items), res.Total, *sortAxis)
	fmt.Printf("%4s  %-28s %7s  %s\n", "rank", "source", "score", "strongest dimension")
	for i, a := range res.Items {
		fmt.Printf("%4d  %-28s %7.3f  %s\n", i+1, a.Name, a.Score, bestDimension(a))
	}

	if *show >= 0 {
		a, ok := c.AssessSource(*show)
		if !ok {
			fmt.Fprintf(os.Stderr, "informer-rank: no source %d\n", *show)
			os.Exit(1)
		}
		fmt.Printf("\nfull assessment of source %d (%s), score %.3f:\n", a.ID, a.Name, a.Score)
		ids := make([]string, 0, len(a.Raw))
		for id := range a.Raw {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("  %-38s raw %12.3f   normalized %6.3f\n", id, a.Raw[id], a.Normalized[id])
		}
	}

	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "informer-rank:", err)
			os.Exit(1)
		}
		if err := c.SourceReport().WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "informer-rank:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("\nreport written to %s\n", *reportPath)
	}

	if *influencers > 0 {
		infs, err := c.Influencers(informer.NewQuery().
			SortByInfluence(informer.Combined).MinInteractions(1).TopK(*influencers).Build())
		if err != nil {
			fmt.Fprintln(os.Stderr, "informer-rank:", err)
			os.Exit(1)
		}
		fmt.Printf("\ntop %d influencers (combined absolute x relative strategy):\n", *influencers)
		for i, inf := range infs {
			fmt.Printf("%4d  %-28s influence %6.3f  interactions %5d  replies %5d\n",
				i+1, inf.Record.Name, inf.InfluenceScore, inf.Record.Interactions, inf.Record.RepliesReceived)
		}
	}
}

// bestDimension names the dimension with the highest score.
func bestDimension(a *informer.Assessment) string {
	best, bestV := "", -1.0
	for d, v := range a.DimensionScores {
		if v > bestV {
			bestV = v
			best = d.String()
		}
	}
	return fmt.Sprintf("%s (%.2f)", best, bestV)
}
