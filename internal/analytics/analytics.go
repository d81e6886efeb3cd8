// Package analytics is the traffic-panel substitute for the external
// services the paper relies on for the non-crawlable measures of Table 1:
// Alexa (traffic rank, daily visitors, daily page views, bounce rate,
// average time on site) and Feedburner (feed subscriptions). This is
// substitution S3 in DESIGN.md.
//
// Rather than asserting panel numbers directly from the latent factors, the
// panel simulates a session log per source (visits with page counts and
// dwell times) and derives bounce rate, time on site and page views per
// visitor from that log, the way a measurement panel would.
package analytics

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"sort"

	"github.com/informing-observers/informer/internal/webgen"
)

// Metrics is the panel's view of one source.
type Metrics struct {
	Host string `json:"host"`
	// TrafficRank is 1-based: 1 is the highest-traffic source in the
	// corpus (Alexa convention: lower is better).
	TrafficRank int `json:"traffic_rank"`
	// DailyVisitors and DailyPageViews are panel extrapolations.
	DailyVisitors  float64 `json:"daily_visitors"`
	DailyPageViews float64 `json:"daily_page_views"`
	// BounceRate is the fraction of single-page sessions, in [0, 1].
	BounceRate float64 `json:"bounce_rate"`
	// AvgTimeOnSite is the mean session duration in seconds.
	AvgTimeOnSite float64 `json:"avg_time_on_site_s"`
	// PageViewsPerVisitor is DailyPageViews / DailyVisitors.
	PageViewsPerVisitor float64 `json:"page_views_per_visitor"`
	// InboundLinks mirrors Alexa's "sites linking in".
	InboundLinks int `json:"inbound_links"`
	// FeedSubscribers mirrors the Feedburner subscription count.
	FeedSubscribers int `json:"feed_subscribers"`
	// NewDiscussionsPerDay is the panel's activity estimate, the measure
	// the paper sources from Alexa for the Time x Liveliness cell.
	NewDiscussionsPerDay float64 `json:"new_discussions_per_day"`
}

// Panel holds metrics for every source of a world.
type Panel struct {
	metrics []Metrics
	byHost  map[string]int
	// activityNoise[i] is the multiplicative panel noise drawn for source
	// i's NewDiscussionsPerDay estimate. It is retained so Refresh can
	// re-derive the per-day activity after an Advance tick bit-identically
	// to a full Build with the same seed, without replaying the session
	// simulation.
	activityNoise []float64
}

// sessionsPerSource is the fixed per-source sample size of the simulated
// visit log. Panels estimate ratios (bounce, dwell) from samples; 150
// sessions keeps estimates noisy-but-informative like real panel data.
const sessionsPerSource = 150

// Build simulates the panel for a world. The seed controls panel noise
// independently of world generation.
func Build(world *webgen.World, seed int64) *Panel {
	rng := rand.New(rand.NewSource(seed))
	p := &Panel{byHost: make(map[string]int, len(world.Sources))}
	type ranked struct {
		id    int
		score float64
	}
	ranks := make([]ranked, 0, len(world.Sources))

	for _, src := range world.Sources {
		lat := src.Latent
		m := Metrics{
			Host:            src.Host,
			InboundLinks:    len(src.Inbound),
			FeedSubscribers: src.FeedSubscribers,
		}

		// Visit-log simulation: page counts follow a geometric-ish law
		// whose mean grows with engagement; dwell time per page likewise.
		var totalPages, bounces int
		var totalDwell float64
		meanExtraPages := 1.2 * math.Exp(0.6*lat.Engagement)
		for s := 0; s < sessionsPerSource; s++ {
			pages := 1 + sampleGeometric(rng, meanExtraPages)
			if pages == 1 {
				bounces++
			}
			dwellPerPage := 45 * math.Exp(0.7*lat.Engagement+0.35*rng.NormFloat64())
			totalPages += pages
			totalDwell += float64(pages) * dwellPerPage
		}
		m.BounceRate = float64(bounces) / sessionsPerSource
		m.AvgTimeOnSite = totalDwell / sessionsPerSource
		pagesPerSession := float64(totalPages) / sessionsPerSource

		m.DailyVisitors = 800 * math.Exp(1.1*lat.Traffic+0.3*rng.NormFloat64())
		m.DailyPageViews = m.DailyVisitors * pagesPerSession
		m.PageViewsPerVisitor = pagesPerSession

		// Activity estimate: discussions per day over the world timeline,
		// with panel noise.
		noise := math.Exp(0.1 * rng.NormFloat64())
		m.NewDiscussionsPerDay = float64(len(src.Discussions)) / world.Days() * noise

		p.activityNoise = append(p.activityNoise, noise)
		p.metrics = append(p.metrics, m)
		p.byHost[src.Host] = src.ID
		ranks = append(ranks, ranked{id: src.ID, score: m.DailyVisitors})
	}

	sort.Slice(ranks, func(i, j int) bool { return ranks[i].score > ranks[j].score })
	for pos, r := range ranks {
		p.metrics[r.id].TrafficRank = pos + 1
	}
	return p
}

// sampleGeometric draws a geometric-ish count with the given mean.
func sampleGeometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Geometric with success probability 1/(1+mean) has mean `mean`.
	p := 1 / (1 + mean)
	n := 0
	for rng.Float64() > p {
		n++
		if n > 1000 {
			break
		}
	}
	return n
}

// Refresh re-derives the panel for an advanced world without replaying the
// session simulation: the session log depends only on the seed and the
// sources' latent factors, so only the per-day activity estimate moves
// (discussion count over the window, scaled by the retained noise draw).
// The result is bit-identical to Build(world, seed) with the original
// seed. Refresh is copy-on-write and returns the receiver itself when no
// estimate's bits move (a tick that kept the window and opened no
// discussion): services.Env.Advance relies on that identity, reading a
// returned receiver as "every source's metrics are bitwise unchanged", to
// skip the panel join of clean records. The receiver is never written.
func (p *Panel) Refresh(world *webgen.World) *Panel {
	np := p
	days := world.Days()
	for i, src := range world.Sources {
		if i >= len(p.metrics) {
			break
		}
		est := float64(len(src.Discussions)) / days * p.activityNoise[i]
		if math.Float64bits(est) == math.Float64bits(np.metrics[i].NewDiscussionsPerDay) {
			continue
		}
		if np == p {
			np = &Panel{
				metrics:       append([]Metrics(nil), p.metrics...),
				byHost:        p.byHost,
				activityNoise: p.activityNoise,
			}
		}
		np.metrics[i].NewDiscussionsPerDay = est
	}
	return np
}

// BySource returns the metrics of source id.
func (p *Panel) BySource(id int) (Metrics, bool) {
	if id < 0 || id >= len(p.metrics) {
		return Metrics{}, false
	}
	return p.metrics[id], true
}

// ByHost returns the metrics of the source serving the given host.
func (p *Panel) ByHost(host string) (Metrics, bool) {
	id, ok := p.byHost[host]
	if !ok {
		return Metrics{}, false
	}
	return p.metrics[id], true
}

// Len returns the number of sources the panel covers.
func (p *Panel) Len() int { return len(p.metrics) }

// Handler exposes the panel as a JSON API: GET /metrics?host=HOST, matching
// how the paper's framework queried Alexa as an external service.
func (p *Panel) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		host := r.URL.Query().Get("host")
		m, ok := p.ByHost(host)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(m); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}
