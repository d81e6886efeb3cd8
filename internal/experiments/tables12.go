package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/informing-observers/informer/internal/analytics"
	"github.com/informing-observers/informer/internal/correlate"
	"github.com/informing-observers/informer/internal/crawler"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/social"
	"github.com/informing-observers/informer/internal/stats"
	"github.com/informing-observers/informer/internal/webgen"
	"github.com/informing-observers/informer/internal/webserve"
)

// MeasureSummary is the corpus-wide distribution of one measure.
type MeasureSummary struct {
	ID          string
	Description string
	Dimension   string
	Attribute   string
	Provenance  string
	Defined     int // records on which the measure is defined
	Stats       stats.Describe
}

// Table1Result exercises the full Table 1 measure suite over a corpus that
// is genuinely crawled over HTTP (substitution S2's proof of life).
type Table1Result struct {
	Sources    int
	CrawlErrs  int
	Measures   []MeasureSummary
	TopSources []string // best sources by overall score
}

// RunTable1 serves a world over a loopback HTTP listener, crawls it, joins
// the panel, evaluates all 20 Table 1 measures (the paper's 19 plus
// src.originality from the correlation engine) and summarises them.
func RunTable1(seed int64, numSources int) (*Table1Result, error) {
	if numSources == 0 {
		numSources = 60
	}
	world := webgen.Generate(webgen.Config{
		Seed: seed, NumSources: numSources, CommentText: true,
		// Inject syndicated copies so the originality column has spread.
		SyndicationRate: 0.1,
	})
	panel := analytics.Build(world, seed+1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("table1: listen: %w", err)
	}
	srv := &http.Server{Handler: webserve.New(world)}
	go srv.Serve(ln)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	snap, err := crawler.Crawl(ctx, crawler.Config{
		BaseURL:    "http://" + ln.Addr().String(),
		FetchFeeds: true,
	})
	if err != nil {
		return nil, fmt.Errorf("table1: crawl: %w", err)
	}
	records := quality.SourceRecordsFromSnapshot(snap, panel, world.Config.End)
	dedup := correlate.NewIndex()
	dedup.Build(world)
	for _, r := range records {
		r.CorrelatedComments, r.DuplicateComments = dedup.Counts(r.ID)
	}
	di := quality.DomainOfInterest{Categories: world.Categories}
	assessor := quality.NewSourceAssessor(records, di, nil)
	ranked := assessor.Rank(records)

	res := &Table1Result{Sources: len(records), CrawlErrs: len(snap.Errs)}
	for i := 0; i < 5 && i < len(ranked); i++ {
		res.TopSources = append(res.TopSources, ranked[i].Name)
	}
	for _, m := range quality.SourceMeasures() {
		var values []float64
		for _, r := range records {
			if v, ok := m.Eval(r, &di); ok {
				values = append(values, v)
			}
		}
		res.Measures = append(res.Measures, MeasureSummary{
			ID:          m.ID,
			Description: m.Description,
			Dimension:   m.Dimension.String(),
			Attribute:   m.Attribute.String(),
			Provenance:  m.Provenance.String(),
			Defined:     len(values),
			Stats:       stats.Summarize(values),
		})
	}
	return res, nil
}

// Render produces the Table 1 measure matrix summary.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — source quality measures over a crawled corpus (%d sources, %d crawl errors)\n\n",
		r.Sources, r.CrawlErrs)
	fmt.Fprintf(&b, "%-36s %-16s %-11s %-9s %8s %10s %10s\n",
		"measure", "dimension", "attribute", "source", "defined", "mean", "median")
	fmt.Fprintln(&b, strings.Repeat("-", 108))
	for _, m := range r.Measures {
		fmt.Fprintf(&b, "%-36s %-16s %-11s %-9s %8d %10.3f %10.3f\n",
			m.ID, m.Dimension, m.Attribute, m.Provenance, m.Defined, m.Stats.Mean, m.Stats.Median)
	}
	fmt.Fprintf(&b, "\ntop sources by overall quality: %s\n", strings.Join(r.TopSources, ", "))
	return b.String()
}

// Table2Result exercises the full Table 2 measure suite over the microblog
// dataset.
type Table2Result struct {
	Contributors int
	Measures     []MeasureSummary
	TopNames     []string
}

// RunTable2 evaluates all 15 contributor measures on the annotated account
// dataset.
func RunTable2(seed int64, numAccounts int) (*Table2Result, error) {
	ds := social.Generate(social.Config{Seed: seed, NumAccounts: numAccounts})
	obs := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	records := quality.ContributorRecordsFromSocial(ds, obs)
	di := quality.DomainOfInterest{}
	assessor := quality.NewContributorAssessor(records, di, nil)
	ranked := assessor.Rank(records)

	res := &Table2Result{Contributors: len(records)}
	for i := 0; i < 5 && i < len(ranked); i++ {
		res.TopNames = append(res.TopNames, ranked[i].Name)
	}
	for _, m := range quality.ContributorMeasures() {
		var values []float64
		for _, r := range records {
			if v, ok := m.Eval(r, &di); ok {
				values = append(values, v)
			}
		}
		res.Measures = append(res.Measures, MeasureSummary{
			ID:          m.ID,
			Description: m.Description,
			Dimension:   m.Dimension.String(),
			Attribute:   m.Attribute.String(),
			Defined:     len(values),
			Stats:       stats.Summarize(values),
		})
	}
	sort.Slice(res.Measures, func(i, j int) bool { return res.Measures[i].ID < res.Measures[j].ID })
	return res, nil
}

// Render produces the Table 2 measure matrix summary.
func (r *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — contributor quality measures over the microblog dataset (%d accounts)\n\n", r.Contributors)
	fmt.Fprintf(&b, "%-32s %-16s %-11s %8s %12s %12s\n",
		"measure", "dimension", "attribute", "defined", "mean", "median")
	fmt.Fprintln(&b, strings.Repeat("-", 96))
	for _, m := range r.Measures {
		fmt.Fprintf(&b, "%-32s %-16s %-11s %8d %12.3f %12.3f\n",
			m.ID, m.Dimension, m.Attribute, m.Defined, m.Stats.Mean, m.Stats.Median)
	}
	fmt.Fprintf(&b, "\ntop contributors by overall quality: %s\n", strings.Join(r.TopNames, ", "))
	return b.String()
}
