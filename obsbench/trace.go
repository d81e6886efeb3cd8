package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/informing-observers/informer/internal/quality"
)

// traceDir is where the traced run writes its spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build"

// canonicalQuery is the facade.query_cold/warm probe: a source query no
// standing subscriber and no read asks for, so its first call in a
// round pays for a spine and its second is a window-cache hit.
const canonicalQuery = "k=10&min_score=0.3&sort=dim.accuracy"

// runTraced is the traced run: the same seeded rounds as the untraced
// run, each published through the corpus (timed as a whole) and replayed
// layer by layer, with the round's reads timed in-process and over
// loopback. It reports the per-layer metrics; the replay check compares
// the replayed windows with the corpus' delivered ones round by round.
func runTraced(sp *spec, seed int64, seconds int) (*result, error) {
	fmt.Printf("obsbench %s seed=%d seconds=%d (traced)\n", sp.name, seed, seconds)
	world, genS := genWorld(sp)
	h, err := newHarness(sp, world)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer h.close()
	tr := newTracer()
	rp, bt, err := newReplay(sp, world, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	p := makePlan(sp, seed, world, timedRounds(sp, seconds))
	readsByRound := assignReads(sp, p)

	var (
		t                                     tally
		round, other, coldQ, warmQ, transport samples
		hookLag, sseLag, polls                samples
		layerMs                               = map[string]samples{}
		layerKB                               = map[string]samples{}
		handler                               = map[string]samples{}
		n                                     counters
		readBytes, reads                      int64
	)
	rd := newReader(h.api.URL)
	defer rd.close()
	api := h.c.APIHandler()
	gcSample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	var gcCycles uint64
	var allocB uint64
	hookBytes0 := hookBytes(h)
	for i := range p.rounds {
		r := &p.rounds[i]
		// The corpus round, timed whole, with its deliveries.
		a0 := tr.allocated()
		metrics.Read(gcSample)
		gc0 := gcSample[0].Value.Uint64()
		t0 := time.Now()
		v, err := publish(sp, h.c, r)
		t1 := time.Now()
		if err != nil {
			t.fail("round", err.Error())
			break
		}
		t.ok()
		if _, err := h.settle(v, time.Now().Add(settleTimeout)); err != nil {
			t.fail("delivery", err.Error())
		} else {
			t.ok()
		}
		if h.sse != nil {
			if at, ok, _ := h.sse.heldAt(v); ok {
				sseLag.addDur(at.Sub(t0))
			}
		}
		if h.hook != nil {
			if at, ok := h.hook.heldAt(v); ok {
				hookLag.addDur(at.Sub(t0))
			}
		}
		events := h.drainSubs(v, &t)
		allocB += tr.allocated() - a0
		metrics.Read(gcSample)
		gcCycles += gcSample[0].Value.Uint64() - gc0

		// The same round, replayed layer by layer.
		var srcReads []quality.Query
		for _, rdp := range readsByRound[i] {
			if q, ok := sourceQuery(rdp); ok {
				srcReads = append(srcReads, q)
			}
		}
		rs, err := rp.round(i, tr, r, srcReads)
		if err != nil {
			return nil, err
		}
		t.check("replay-window", sameWindows(h, rs.windows))
		if rs.events != events {
			t.fail("replay-events", fmt.Sprintf("round %d: replay fanned out %d events, corpus %d", i, rs.events, events))
		}

		// Reads: in-process cold, over loopback, in-process warm.
		for _, rdp := range readsByRound[i] {
			target := rd.target(rdp)
			cold, size := serveInProcess(api, target)
			lt0 := time.Now()
			err := rd.get(rdp)
			loop := time.Since(lt0)
			if err != nil {
				t.fail("read", err.Error())
				continue
			}
			t.ok()
			warm, _ := serveInProcess(api, target)
			s := handler[rdp.class]
			s.addDur(cold)
			handler[rdp.class] = s
			transport.addDur(loop - warm)
			readBytes += int64(size)
			reads++
		}
		q, _ := bindQuery(canonicalQuery)
		for _, dst := range []*samples{&coldQ, &warmQ} {
			qt0 := time.Now()
			if _, err := h.c.QuerySources(q); err != nil {
				t.fail("query", err.Error())
				break
			}
			dst.addDur(time.Since(qt0))
		}

		if i < sp.warmup {
			continue
		}
		round.addDur(t1.Sub(t0))
		sum := 0.0
		for _, l := range layerOrder {
			ms, kb := layerMs[l], layerKB[l]
			ms.add(rs.ms[l])
			kb.add(rs.kb[l])
			layerMs[l], layerKB[l] = ms, kb
			sum += rs.ms[l]
		}
		for _, k := range []string{"quality.spine", "quality.window", "ingest.drain"} {
			s := layerMs[k]
			s.add(rs.ms[k])
			layerMs[k] = s
		}
		if rs.polls > 0 {
			polls.add(rs.ms["ingest.poll"] / float64(rs.polls))
		}
		other.add(float64(t1.Sub(t0))/1e6 - sum)
		n.add(rs)
	}
	if err := writeSpans(tr, sp.name, seed); err != nil {
		fmt.Fprintln(os.Stderr, "obsbench: spans not written:", err)
	}
	rounds := float64(len(round))
	if rounds == 0 {
		return nil, fmt.Errorf("traced run published no timed rounds")
	}

	rep := newReport()
	med := func(s samples) float64 { m, _ := s.median(); return m }
	rep.set("webgen.generate_s", genS, "s", 0)
	rep.set("webgen.tick_ms", med(layerMs["webgen"]), "ms", len(round))
	rep.set("webgen.new_comments", float64(n.newComments)/rounds, "count", len(round))
	rep.set("ingest.poll_ms", med(polls), "ms", len(polls))
	rep.set("ingest.drain_ms", med(layerMs["ingest.drain"]), "ms", len(round))
	rep.set("ingest.active_poll_ratio", ratio(n.activePolls, n.polls), "ratio", n.polls)
	rep.set("correlate.build_s", bt.correlate, "s", 0)
	rep.set("correlate.fold_ms", med(layerMs["correlate"]), "ms", len(round))
	rep.set("correlate.indexed", float64(n.lastIndexed), "count", 0)
	rep.set("correlate.story_total", float64(n.lastStories), "count", 0)
	rep.set("analytics.build_s", bt.analytics, "s", 0)
	rep.set("analytics.refresh_ms", med(layerMs["analytics"]), "ms", len(round))
	rep.set("services.env_build_s", bt.env, "s", 0)
	rep.set("services.advance_ms", med(layerMs["services"]), "ms", len(round))
	rep.set("services.dirty_sources", float64(n.dirtySources)/rounds, "count", len(round))
	rep.set("services.dirty_contributors", float64(n.dirtyContributors)/rounds, "count", len(round))
	rep.set("services.reeval_ratio", float64(n.reevals)/rounds, "ratio", len(round))
	rep.set("quality.spine_ms", med(layerMs["quality.spine"]), "ms", len(round))
	rep.set("quality.window_ms", med(layerMs["quality.window"]), "ms", len(round))
	rep.set("quality.spine_scans", float64(n.spine.Scans)/rounds, "count", len(round))
	rep.set("quality.spine_repairs", float64(n.spine.Repairs)/rounds, "count", len(round))
	rep.set("quality.spine_carries", float64(n.spine.Carries)/rounds, "count", len(round))
	rep.set("shard.carry_ratio", ratio(int(n.spine.Carries), int(n.spine.Scans+n.spine.Repairs+n.spine.Carries)), "ratio", len(round))
	rep.set("subscribe.publish_ms", med(layerMs["subscribe"]), "ms", len(round))
	rep.set("subscribe.events_per_round", float64(n.events)/rounds, "count", len(round))
	rep.set("deliver.lag_ms", med(hookLag), "ms", len(hookLag))
	rep.set("deliver.bytes_per_round", float64(hookBytes(h)-hookBytes0)/float64(len(p.rounds)), "B", len(p.rounds))
	rep.set("deliver.retries", float64(sinkRetries(h)), "count", 0)
	for _, class := range []string{"sources", "contributors", "influencers", "stories"} {
		rep.set("apiserve.handler_ms."+class, med(handler[class]), "ms", len(handler[class]))
	}
	rep.set("apiserve.transport_ms", med(transport), "ms", len(transport))
	rep.set("apiserve.bytes_per_read", float64(readBytes)/math.Max(1, float64(reads)), "B", int(reads))
	rep.set("apiserve.sse_lag_ms", med(sseLag), "ms", len(sseLag))
	rep.set("facade.round_ms", med(round), "ms", len(round))
	rep.set("facade.query_cold_ms", med(coldQ), "ms", len(coldQ))
	rep.set("facade.query_warm_ms", med(warmQ), "ms", len(warmQ))
	rep.set("facade.other_ms", med(other), "ms", len(other))
	rep.set("go.alloc_mb_per_round", float64(allocB)/(1<<20)/float64(len(p.rounds)), "MB", len(p.rounds))
	rep.set("go.gc_per_round", float64(gcCycles)/float64(len(p.rounds)), "count", len(p.rounds))
	covered := 0.0
	for _, l := range layerOrder {
		rep.set(l+".alloc_kb", med(layerKB[l]), "KiB", len(round))
		covered += med(layerMs[l])
	}
	rep.set("replay.coverage", covered/med(round), "ratio", len(round))
	checkFinal(sp, h, &t)
	fmt.Printf("failures: %d of %d attempted (share %.4f)\n", t.failed, t.attempted, t.share())
	for k, c := range t.kinds {
		fmt.Printf("  %s: %d, first: %s\n", k, c, t.first[k])
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: rep.m}, nil
}

// counters sums the replay's per-round work counters over the timed
// rounds. They repeat exactly for a seed.
type counters struct {
	polls, activePolls              int
	newComments                     int
	dirtySources, dirtyContributors int
	reevals                         int
	spine                           quality.SpineStats
	events                          int
	lastStories, lastIndexed        int
}

func (n *counters) add(rs *roundStats) {
	n.polls += rs.polls
	n.activePolls += rs.activePolls
	n.newComments += rs.newComments
	n.dirtySources += rs.dirtySources
	n.dirtyContributors += rs.dirtyContributors
	if rs.reeval {
		n.reevals++
	}
	n.spine.Scans += rs.spine.Scans
	n.spine.Repairs += rs.spine.Repairs
	n.spine.Carries += rs.spine.Carries
	n.events += rs.events
	n.lastStories, n.lastIndexed = rs.storyTotal, rs.indexed
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// assignReads gives each round the reads the untraced run issues during
// it: its own first reads, or the open-loop reads due within its period.
func assignReads(sp *spec, p *plan) [][]readPlan {
	out := make([][]readPlan, len(p.rounds))
	for i := range p.rounds {
		out[i] = p.rounds[i].reads
	}
	for ph, reads := range [][]readPlan{p.warmReads, p.reads} {
		for _, r := range reads {
			i := int(r.due / sp.period)
			if ph == 1 {
				i += sp.warmup
			}
			if i < len(out) {
				out[i] = append(out[i], r)
			}
		}
	}
	return out
}

// sourceQuery binds a /sources read to its query, without a cursor.
func sourceQuery(rd readPlan) (quality.Query, bool) {
	const prefix = "/api/v1/sources?"
	if rd.class != "sources" || len(rd.path) < len(prefix) {
		return quality.Query{}, false
	}
	q, err := bindQuery(rd.path[len(prefix):])
	return q, err == nil
}

// serveInProcess times one read through the API handler without the
// network, returning the response size as sent (gzip when accepted).
func serveInProcess(api http.Handler, target string) (time.Duration, int) {
	req := httptest.NewRequest("GET", target, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	rec := httptest.NewRecorder()
	t0 := time.Now()
	api.ServeHTTP(rec, req)
	return time.Since(t0), rec.Body.Len()
}

// sameWindows compares the replayed subscribers' windows with the
// windows the corpus delivered to the same subscriptions this round.
func sameWindows(h *harness, replayed [][]*quality.Assessment) error {
	if len(replayed) != len(h.subs) {
		return fmt.Errorf("replay has %d subscribers, corpus %d", len(replayed), len(h.subs))
	}
	for i, s := range h.subs {
		if err := sameItems(s.window, replayed[i]); err != nil {
			return fmt.Errorf("round %d, %s: %w", s.version, s.query, err)
		}
	}
	return nil
}

func hookBytes(h *harness) int64 {
	if h.hook == nil {
		return 0
	}
	n, _, _ := h.hook.received()
	return n
}

func sinkRetries(h *harness) int64 {
	var n int64
	if h.hook == nil {
		return 0
	}
	for _, st := range h.c.Sinks().Stats() {
		n += st.Retries
	}
	return n
}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(tr *tracer, workload string, seed int64) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.SliceStable(tr.spans, func(i, j int) bool { return tr.spans[i].StartNs < tr.spans[j].StartNs })
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
