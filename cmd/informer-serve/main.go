// Command informer-serve exposes a generated Web 2.0 corpus over HTTP —
// per-source pages, discussion pages with embedded data islands, RSS/Atom
// feeds and a sitemap — plus the analytics panel as a JSON API, so the
// crawler (or informer-rank -crawl) can walk it like the live Web, and the
// versioned quality-query API under /api/v1 (sources, contributors,
// influencers, sentiment, trending, search, watch, stream, sinks) for
// remote observers:
//
//	informer-serve -addr 127.0.0.1:8080 -sources 60
//	informer-rank  -crawl http://127.0.0.1:8080
//	curl 'http://127.0.0.1:8080/api/v1/sources?min_score=0.6&k=10'
//	curl 'http://127.0.0.1:8080/api/v1/sources?limit=20&cursor=<next_cursor>'
//	curl -N 'http://127.0.0.1:8080/api/v1/stream?since=1&min_score=0.5&k=10'
//
// With -tick-days > 0 the corpus advances on a timer (the monitoring
// scenario): /api/v1 responses then carry moving snapshot tokens, clients
// pinning ?snapshot=N keep reading one coherent assessment round, and the
// standing-query transports deliver each tick's rank movement — one
// /api/v1/watch long-poll per tick, or every tick over one /api/v1/stream
// SSE connection. -watch runs a built-in observer against the served
// stream endpoint and prints the deltas:
//
//	informer-serve -tick-days 7 -tick-every 5s -watch 'min_score=0.5&k=10'
//
// -ingest replaces that lockstep with continuous adaptive ingestion: every
// source is polled on its own schedule (hot sources converge to -poll-min,
// the quiet tail backs off to -poll-max), each poll's delta folds into a
// pending-delta accumulator without publishing, and a drain policy
// (-ingest-drain-ticks / -ingest-drain-age) decides when the buffered
// ticks coalesce into ONE published assessment round — one UpdateRows
// repair, one watch/stream/sink fan-out, however many polls were folded:
//
//	informer-serve -ingest -poll-min 250ms -poll-max 30s -ingest-drain-ticks 12
//
// -sink attaches a push sink at startup: each tick's delta is POSTed to
// the webhook through the delivery engine (bounded queue with coalescing,
// retries with backoff, circuit breaker, eviction); more sinks can be
// managed live over POST /api/v1/sinks:
//
//	informer-serve -tick-days 7 -sink http://127.0.0.1:9000/hook -sink-query 'k=10&changes=entered'
//
// The server itself is production-shaped: header/read/idle timeouts, a
// write timeout the streaming handlers exempt themselves from, and
// graceful degradation on SIGINT/SIGTERM — pending sink deliveries flush
// within -drain, open SSE streams receive a terminal resync frame, and
// in-flight requests complete before the listener closes.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	informer "github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/ingest"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "informer-serve:", err)
		os.Exit(1)
	}
}

// run is the whole server lifecycle, factored out of main so the e2e test
// can boot and stop a real instance in-process. It returns once the
// context is cancelled (signal) and the server has degraded gracefully.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("informer-serve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
		seed      = fs.Int64("seed", 1, "corpus seed")
		sources   = fs.Int("sources", 60, "number of sources")
		tickDays  = fs.Int("tick-days", 0, "advance the corpus by this many days per tick (0 = static)")
		tickWait  = fs.Duration("tick-every", 30*time.Second, "wall-clock interval between ticks")
		ingestOn  = fs.Bool("ingest", false, "continuous adaptive ingestion: poll each source on its own activity-driven schedule, coalesce the deltas, publish one assessment round per drain (replaces the -tick-days lockstep)")
		pollMin   = fs.Duration("poll-min", 250*time.Millisecond, "-ingest: poll interval hot sources converge to")
		pollMax   = fs.Duration("poll-max", 30*time.Second, "-ingest: poll interval the quiet tail backs off to")
		drainMax  = fs.Int("ingest-drain-ticks", 12, "-ingest: publish a round once this many active polls are buffered")
		drainAge  = fs.Duration("ingest-drain-age", 2*time.Second, "-ingest: publish a round once the oldest buffered poll is this stale")
		watchQ    = fs.String("watch", "", "demo observer: consume /api/v1/stream with this query string (e.g. 'min_score=0.5&k=10') and print rank movement per tick")
		sinkURL   = fs.String("sink", "", "attach a webhook push sink: POST each tick's delta envelope to this URL")
		sinkQuery = fs.String("sink-query", "k=10", "standing query of the -sink webhook, in /api/v1/watch query-string form (delta filters included)")
		drain     = fs.Duration("drain", 5*time.Second, "graceful-shutdown budget for flushing pending sink deliveries")
		syndicate = fs.Float64("syndication", 0, "fraction of comments syndicated from other sources (0..1); feeds the correlation engine behind /api/v1/stories")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	c := informer.New(informer.Config{Seed: *seed, NumSources: *sources, CommentText: true, SyndicationRate: *syndicate})
	mux := http.NewServeMux()
	mux.Handle("/", c.Handler())
	mux.Handle("/panel/", http.StripPrefix("/panel", c.PanelHandler()))
	mux.Handle("/api/v1/", c.APIHandler())

	if *sinkURL != "" {
		id, err := registerSink(c, *sinkURL, *sinkQuery)
		if err != nil {
			return fmt.Errorf("-sink: %w", err)
		}
		fmt.Fprintf(out, "push sink %s -> %s (%q)\n", id, *sinkURL, *sinkQuery)
	}

	// The advancement loop — lockstep ticks or adaptive ingestion — owns
	// all corpus writes. loopDone closes when it has fully stopped: the
	// shutdown path waits on it BEFORE Corpus.Shutdown closes the
	// subscription registry, so a tick landing during SIGTERM drain can
	// never publish into a closing fan-out.
	loopDone := make(chan struct{})
	switch {
	case *ingestOn && *tickDays > 0:
		return fmt.Errorf("-ingest replaces the -tick-days/-tick-every lockstep; pick one")
	case *ingestOn:
		go func() {
			defer close(loopDone)
			ingestLoop(ctx, c, out, *seed, ingest.SchedulerConfig{Min: *pollMin, Max: *pollMax},
				ingest.DrainPolicy{MaxPendingTicks: *drainMax, MaxAge: *drainAge})
		}()
	case *tickDays > 0:
		go func() {
			defer close(loopDone)
			tickLoop(ctx, c, out, *tickDays, *seed, *tickWait)
		}()
	default:
		close(loopDone)
	}

	// Bind before announcing, so ephemeral ports (-addr 127.0.0.1:0) print
	// the resolved address a client can actually reach.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	real := ln.Addr().String()
	if *watchQ != "" {
		go watchLoop("http://"+real, *watchQ)
	}

	fmt.Fprintf(out, "serving %d sources on http://%s\n", *sources, real)
	fmt.Fprintf(out, "  crawlable world: /sitemap.txt   panel: /panel/metrics?host=...\n")
	fmt.Fprintf(out, "  quality API:     /api/v1/sources?min_score=0.6&k=10 (snapshot %d)\n", c.SnapshotVersion())
	fmt.Fprintf(out, "  watch feed:      /api/v1/watch?since=%d&k=10\n", c.SnapshotVersion())
	fmt.Fprintf(out, "  SSE stream:      /api/v1/stream?since=%d&k=10\n", c.SnapshotVersion())
	fmt.Fprintf(out, "  push sinks:      POST /api/v1/sinks {\"url\":..., \"query\":...}\n")

	// Production-shaped timeouts. WriteTimeout would sever streams and
	// parked long-polls, so those handlers push their own per-connection
	// write deadlines (http.NewResponseController) past it; everything
	// else gets the bound.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err // listener failed outright
	case <-ctx.Done():
	}

	// Graceful degradation, in dependency order: stop the advancement
	// loop first (its final drain publishes into a still-open registry),
	// then flush pending sink deliveries within the drain budget and close
	// the standing-query fan-out (open SSE streams get their terminal
	// resync frame, parked long-polls return), then drain in-flight
	// requests off the listener.
	<-loopDone
	fmt.Fprintf(out, "shutting down: flushing sinks (budget %s), closing streams\n", *drain)
	flushCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := c.Shutdown(flushCtx); err != nil {
		fmt.Fprintf(out, "shutdown: sink flush cut short: %v\n", err)
	}
	stopCtx, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := srv.Shutdown(stopCtx); err != nil {
		return err
	}
	<-errCh // Serve has returned http.ErrServerClosed
	fmt.Fprintln(out, "shutdown: done")
	return nil
}

// tickLoop is the -tick-days lockstep: one global Advance per wall-clock
// interval, each an immediately published assessment round.
func tickLoop(ctx context.Context, c *informer.Corpus, out io.Writer, days int, seed int64, every time.Duration) {
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for tick := int64(1); ; tick++ {
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return
		}
		c.Advance(days, seed+tick)
		fmt.Fprintf(out, "tick: +%dd, snapshot %d, %d dirty sources\n",
			days, c.SnapshotVersion(), len(c.LastDelta().DirtySourceIDs()))
	}
}

// ingestLoop is the -ingest continuous mode: an adaptive per-source
// scheduler decides which sources are worth polling each round (activity
// halves a source's interval toward cfg.Min, quiet polls back it off
// toward cfg.Max), every active poll folds into the corpus' pending-delta
// accumulator without publishing, and the drain policy turns the buffered
// span into one published assessment round. On shutdown it drains once
// more — run() waits for this loop to exit before closing the
// subscription registry, so the final publish lands in an open fan-out.
func ingestLoop(ctx context.Context, c *informer.Corpus, out io.Writer, seed int64, cfg ingest.SchedulerConfig, pol ingest.DrainPolicy) {
	ids := make([]int, 0, len(c.World().Sources))
	for _, s := range c.World().Sources {
		ids = append(ids, s.ID)
	}
	sched := ingest.NewScheduler(ids, time.Now(), cfg)
	var oldest time.Time // wall-clock age of the first buffered poll
	pollSeed := seed
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			if n, ok := c.DrainTick(); ok {
				fmt.Fprintf(out, "drain: %d coalesced polls -> snapshot %d (final)\n", n, c.SnapshotVersion())
			}
			return
		case now := <-timer.C:
			for _, id := range sched.Due(now) {
				pollSeed++
				d := c.Ingest(id, pollSeed)
				sched.Observe(id, d.NewCommentCount(), now)
				if !d.Empty() && oldest.IsZero() {
					oldest = now
				}
			}
			ticks, comments := c.PendingIngest()
			if pol.Due(ticks, comments, oldest, time.Now()) {
				n, _ := c.DrainTick()
				fmt.Fprintf(out, "drain: %d coalesced polls -> snapshot %d, %d new comments\n",
					n, c.SnapshotVersion(), comments)
				oldest = time.Time{}
			}
			wait := cfg.Min
			if next, ok := sched.NextDue(); ok {
				wait = time.Until(next)
			}
			if wait <= 0 {
				wait = time.Millisecond
			}
			timer.Reset(wait)
		}
	}
}

// registerSink attaches the -sink webhook through the same binding as
// POST /api/v1/sinks (scope, predicates, k/limit, delta filters).
func registerSink(c *informer.Corpus, rawURL, query string) (string, error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("bad sink url %q: need an absolute http(s) URL", rawURL)
	}
	v, err := url.ParseQuery(query)
	if err != nil {
		return "", fmt.Errorf("bad query %q: %w", query, err)
	}
	q, err := informer.BindQuery(v)
	if err != nil {
		return "", err
	}
	f, err := informer.BindDeltaFilter(v)
	if err != nil {
		return "", err
	}
	return c.Sinks().Register(informer.SinkConfig{
		Name:   "flag:-sink",
		Sink:   &informer.WebhookSink{URL: rawURL},
		Query:  q,
		Filter: f,
	})
}

// watchLoop is the built-in demo observer, now a Server-Sent Events
// client: it holds one /api/v1/stream connection over real HTTP (exactly
// like a remote EventSource) and prints the window's rank movement frame
// by frame as ticks land — no re-polling. On a disconnect it resumes with
// its last consumed frame id as the since token; on a 410 — the token
// aged out of the snapshot ring — it re-syncs from the current round, the
// same recovery a remote observer performs. A terminal "resync" frame
// (the in-stream 410 for slow consumers) clears the token the same way.
func watchLoop(base, query string) {
	var since int64 // 0 = start at the current round
	announced := false
	for {
		target := base + "/api/v1/stream?" + query
		if since > 0 {
			target += "&since=" + strconv.FormatInt(since, 10)
		}
		resp, err := http.Get(target)
		if err != nil {
			time.Sleep(200 * time.Millisecond) // server still starting up
			continue
		}
		if resp.StatusCode == http.StatusGone {
			resp.Body.Close()
			fmt.Printf("watch: snapshot %d aged out, re-syncing from the current round\n", since)
			since = 0
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			time.Sleep(time.Second)
			continue
		}
		since = consumeStream(resp, query, since, &announced)
	}
}

// consumeStream reads SSE frames until the connection drops and returns
// the since token to resume from.
func consumeStream(resp *http.Response, query string, since int64, announced *bool) int64 {
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return since // reconnect and resume from the last consumed frame
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "": // frame boundary: dispatch
			switch event {
			case "sync":
				var sync struct {
					Snapshot int64 `json:"snapshot"`
				}
				if json.Unmarshal([]byte(data), &sync) == nil {
					since = sync.Snapshot
					if !*announced {
						fmt.Printf("watch: observing %q from snapshot %d\n", query, since)
						*announced = true
					}
				}
			case "resync":
				fmt.Println("watch: fell behind the tick rate, re-syncing from the current round")
				return 0
			case "": // delta frame
				since = printDelta(data, since)
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"): // heartbeat
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// printDelta renders one delta frame's envelope (byte-identical to a
// /api/v1/watch response body) and returns the new since token.
func printDelta(data string, since int64) int64 {
	var env struct {
		Snapshot int64 `json:"snapshot"`
		Changes  []struct {
			Name    string  `json:"name"`
			Event   string  `json:"event"`
			OldRank int     `json:"old_rank"`
			NewRank int     `json:"new_rank"`
			Score   float64 `json:"score"`
		} `json:"changes"`
	}
	if json.Unmarshal([]byte(data), &env) != nil {
		return since
	}
	for _, ch := range env.Changes {
		switch ch.Event {
		case "entered":
			fmt.Printf("watch: + %-24s entered at #%d (%.3f)\n", ch.Name, ch.NewRank, ch.Score)
		case "left":
			fmt.Printf("watch: - %-24s left (was #%d)\n", ch.Name, ch.OldRank)
		default:
			fmt.Printf("watch: ~ %-24s #%d -> #%d (%.3f)\n", ch.Name, ch.OldRank, ch.NewRank, ch.Score)
		}
	}
	return env.Snapshot
}
