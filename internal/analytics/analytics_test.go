package analytics

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"github.com/informing-observers/informer/internal/stats"
	"github.com/informing-observers/informer/internal/webgen"
)

func testPanel(t *testing.T, n int) (*webgen.World, *Panel) {
	t.Helper()
	world := webgen.Generate(webgen.Config{Seed: 8, NumSources: n})
	return world, Build(world, 99)
}

func TestPanelDeterministic(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 8, NumSources: 30})
	a := Build(world, 1)
	b := Build(world, 1)
	for i := 0; i < 30; i++ {
		ma, _ := a.BySource(i)
		mb, _ := b.BySource(i)
		if ma != mb {
			t.Fatalf("panel not deterministic at source %d", i)
		}
	}
}

func TestTrafficRankIsPermutation(t *testing.T) {
	_, p := testPanel(t, 50)
	seen := make([]int, 0, 50)
	for i := 0; i < 50; i++ {
		m, ok := p.BySource(i)
		if !ok {
			t.Fatalf("missing source %d", i)
		}
		seen = append(seen, m.TrafficRank)
	}
	sort.Ints(seen)
	for i, r := range seen {
		if r != i+1 {
			t.Fatalf("ranks are not a permutation of 1..50: %v", seen)
		}
	}
}

func TestRankOneHasMostVisitors(t *testing.T) {
	_, p := testPanel(t, 50)
	var best Metrics
	for i := 0; i < 50; i++ {
		m, _ := p.BySource(i)
		if m.TrafficRank == 1 {
			best = m
		}
	}
	for i := 0; i < 50; i++ {
		m, _ := p.BySource(i)
		if m.DailyVisitors > best.DailyVisitors {
			t.Errorf("source with rank %d has more visitors than rank 1", m.TrafficRank)
		}
	}
}

func TestMetricsSanity(t *testing.T) {
	world, p := testPanel(t, 40)
	for i := 0; i < 40; i++ {
		m, _ := p.BySource(i)
		if m.BounceRate < 0 || m.BounceRate > 1 {
			t.Errorf("bounce rate %v out of range", m.BounceRate)
		}
		if m.DailyVisitors <= 0 || m.DailyPageViews < m.DailyVisitors {
			t.Errorf("visitors/pageviews inconsistent: %v / %v", m.DailyVisitors, m.DailyPageViews)
		}
		if m.AvgTimeOnSite <= 0 {
			t.Errorf("time on site %v", m.AvgTimeOnSite)
		}
		if m.PageViewsPerVisitor < 1 {
			t.Errorf("pages per visitor %v < 1", m.PageViewsPerVisitor)
		}
		if m.InboundLinks != len(world.Sources[i].Inbound) {
			t.Errorf("inbound mismatch at %d", i)
		}
		if m.FeedSubscribers != world.Sources[i].FeedSubscribers {
			t.Errorf("subscribers mismatch at %d", i)
		}
		if m.NewDiscussionsPerDay <= 0 {
			t.Errorf("new discussions per day %v", m.NewDiscussionsPerDay)
		}
	}
}

func TestLatentsDriveMetrics(t *testing.T) {
	world, p := testPanel(t, 400)
	var tLat, visitors, eLat, bounce, dwell []float64
	for i, src := range world.Sources {
		m, _ := p.BySource(i)
		tLat = append(tLat, src.Latent.Traffic)
		visitors = append(visitors, m.DailyVisitors)
		eLat = append(eLat, src.Latent.Engagement)
		bounce = append(bounce, m.BounceRate)
		dwell = append(dwell, m.AvgTimeOnSite)
	}
	if r, _ := stats.Spearman(tLat, visitors); r < 0.7 {
		t.Errorf("traffic latent vs visitors rho = %v, want strong", r)
	}
	if r, _ := stats.Spearman(eLat, bounce); r > -0.5 {
		t.Errorf("engagement vs bounce rho = %v, want strongly negative", r)
	}
	if r, _ := stats.Spearman(eLat, dwell); r < 0.5 {
		t.Errorf("engagement vs dwell rho = %v, want strongly positive", r)
	}
	// Cross-factor independence: traffic latent should not predict bounce.
	if r, _ := stats.Spearman(tLat, bounce); r > 0.2 || r < -0.2 {
		t.Errorf("traffic vs bounce rho = %v, want ~0", r)
	}
}

func TestByHost(t *testing.T) {
	world, p := testPanel(t, 10)
	m, ok := p.ByHost(world.Sources[3].Host)
	if !ok || m.Host != world.Sources[3].Host {
		t.Errorf("ByHost failed: %+v %v", m, ok)
	}
	if _, ok := p.ByHost("nonexistent.test"); ok {
		t.Error("unknown host should miss")
	}
	if _, ok := p.BySource(-1); ok {
		t.Error("negative id should miss")
	}
	if p.Len() != 10 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestPanelHTTPHandler(t *testing.T) {
	world, p := testPanel(t, 5)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics?host=" + world.Sources[2].Host)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	want, _ := p.BySource(2)
	if m != want {
		t.Errorf("HTTP metrics = %+v, want %+v", m, want)
	}

	resp2, err := http.Get(ts.URL + "/metrics?host=missing.test")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Errorf("missing host status = %d, want 404", resp2.StatusCode)
	}
}

func TestSampleGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	if got := sampleGeometric(rng, 0); got != 0 {
		t.Errorf("mean 0 must give 0, got %d", got)
	}
	// Empirical mean close to the requested mean.
	const mean = 2.5
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(sampleGeometric(rng, mean))
	}
	if got := sum / n; got < mean*0.9 || got > mean*1.1 {
		t.Errorf("empirical mean %v, want ~%v", got, mean)
	}
}

// TestRefreshCopyOnWrite pins Refresh's identity contract: a tick that
// moves no per-day estimate (a same-day tick, which opens no discussion)
// returns the receiver itself, and one that moves some (a poll opening a
// discussion, a day's advance) returns a fresh panel equal to a full Build
// while the receiver keeps its own metrics.
func TestRefreshCopyOnWrite(t *testing.T) {
	world := webgen.Generate(webgen.Config{Seed: 8, NumSources: 40, ChurnScale: 8})
	p := Build(world, 99)
	before := append([]Metrics(nil), p.metrics...)

	same, _ := webgen.AdvanceSameDay(world, 11, nil)
	if got := p.Refresh(same); got != p {
		t.Fatal("a same-day tick moved no estimate, yet Refresh returned a new panel")
	}

	var polled *webgen.World
	for seed := int64(1); seed <= 200 && polled == nil; seed++ {
		w, delta := webgen.AdvanceSource(world, int(seed)%40, seed, nil)
		opened := false
		delta.ForEachNewDiscussion(func(int, *webgen.Discussion) { opened = true })
		if opened {
			polled = w
		}
	}
	if polled == nil {
		t.Fatal("no poll in 200 seeds opened a discussion")
	}
	day, _ := webgen.Advance(world, 1, 12)
	for _, w := range []*webgen.World{polled, day} {
		np := p.Refresh(w)
		if np == p {
			t.Fatal("a tick that moved an estimate returned the receiver")
		}
		want := Build(w, 99)
		for i := range before {
			got, _ := np.BySource(i)
			if exp, _ := want.BySource(i); got != exp {
				t.Fatalf("source %d: refreshed %+v, built %+v", i, got, exp)
			}
			if p.metrics[i] != before[i] {
				t.Fatalf("Refresh wrote the receiver's metrics of source %d", i)
			}
		}
	}
}
