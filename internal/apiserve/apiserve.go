// Package apiserve exposes quality assessments as a versioned,
// snapshot-consistent JSON HTTP API (DESIGN.md section 7) — the serving
// layer for observers who consume filtered, ranked slices of the corpus
// rather than whole assessment dumps:
//
//	GET /api/v1/sources?category=place&min_score=0.6&sort=dim.time&k=10
//	GET /api/v1/contributors?spam_resistance=0.3&k=25&fields=scores
//	GET /api/v1/sources?limit=20&cursor=<next_cursor of the previous page>
//	GET /api/v1/influencers?strategy=combined&k=10
//	GET /api/v1/sentiment            GET /api/v1/trending?category=place
//	GET /api/v1/search?q=hotel+milan
//	GET /api/v1/watch?since=3&min_score=0.6&k=10&wait=30s
//	GET /api/v1/stream?since=3&min_score=0.6&k=10        (Server-Sent Events)
//
// Filters are pushed down: the query string binds to a quality.Query and
// executes below the ranking inside the assessor (bounded top-k selection
// over the cached measure matrix), so the handler never materializes more
// assessments than one response page.
//
// Pagination is keyset-first: every windowed response carries an opaque
// "next_cursor" token (the (sort key, ID) position of the last row, see
// cursor.go) and echoing it as ?cursor= resumes the walk at single-page
// cost. Offset paging is retired: ?offset= is answered with 400, telling
// the client to follow next_cursor instead. The envelope's "offset" field
// stays, reporting the rank of the page's first item.
//
// Consistency model: every response is computed from ONE immutable
// assessment snapshot and carries its monotonic version both in the
// envelope ("snapshot") and in the X-Informer-Snapshot header, plus a
// strong content ETag honouring If-None-Match with 304 and a
// Last-Modified stamp derived from the snapshot tick timeline (the moment
// the served round was first observed), honouring If-Modified-Since.
// Envelopes are gzip-compressed when the client accepts it. A client
// walking pages echoes the first page's token (?snapshot=N); the server
// retains a small ring of recent snapshots and keeps serving the pinned
// round even while Advance publishes new ones, so a paginated walk never
// mixes two assessment rounds. A pin that has aged out of the ring
// answers 410 Gone — the client restarts the walk on the current round.
//
// Standing queries are served by the subscription registry
// (internal/subscribe, DESIGN.md section 9): each distinct canonical
// query is evaluated once per published round and its window delta fans
// out to every subscriber. Two transports consume it. /api/v1/watch is
// the long-poll: it diffs one query's ranked window between the round the
// observer last saw (?since=N) and the current one, answering only the
// rows that entered, left or moved — with old and new ranks — and while
// the rounds are equal it parks on the registry until the next round or
// the ?wait= deadline. /api/v1/stream is the SSE feed: one connection
// carries the same delta envelopes tick after tick, with Last-Event-ID
// resume and heartbeats (stream.go). Both answer 410 Gone for a
// since-token that aged out of the ring, and both deliver byte-identical
// delta envelopes for the same since-token walk.
package apiserve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/informing-observers/informer/internal/buzz"
	"github.com/informing-observers/informer/internal/correlate"
	"github.com/informing-observers/informer/internal/deliver"
	"github.com/informing-observers/informer/internal/etag"
	"github.com/informing-observers/informer/internal/quality"
	"github.com/informing-observers/informer/internal/search"
	"github.com/informing-observers/informer/internal/sentiment"
	"github.com/informing-observers/informer/internal/subscribe"
)

// Snapshot is one immutable assessment round: everything a request needs,
// answered consistently. The informer facade adapts its internal snapshot
// type to this interface; implementations must be safe for concurrent use
// and must never mutate after publication.
type Snapshot interface {
	// Version is the round's monotonic snapshot token.
	Version() int64
	// ShardCount is the engine sharding the round was assessed under
	// (1 = one shard, the default). Cursor tokens are tagged with it;
	// a token minted under a different sharding answers 410 Gone.
	ShardCount() int
	QuerySources(q quality.Query) (*quality.QueryResult, error)
	QueryContributors(q quality.Query) (*quality.QueryResult, error)
	// ContributorRecords are the records QueryContributors executes over,
	// which pair an influencer page with its records.
	ContributorRecords() []*quality.ContributorRecord
	// Stories answers the story-cluster listing (nil-safe: a corpus
	// without comment text serves an empty result, never an error). The
	// snapshot enriches each story with member names and quality scores,
	// which live on its side of the interface.
	Stories(q correlate.StoryQuery) *StoriesResult
	SentimentByCategory() map[string]sentiment.Indicator
	TrendingTerms(category string, k int) []buzz.Term
	Search(query string, k int) []search.Result
}

// Provider hands out the current snapshot and the standing-query
// subscription registry its owner feeds: the informer facade's atomic
// snapshot pointer and the registry it publishes every round to from
// Advance, after the swap. HTTP watchers and streams subscribe into that
// registry, so they and the owner's in-process subscribers fan out of the
// same one-evaluation-per-tick groups.
type Provider interface {
	Snapshot() Snapshot
	Subscriptions() *subscribe.Registry
}

// retainedSnapshots bounds the pin ring: how many assessment rounds stay
// addressable by ?snapshot=N after newer rounds are published. Snapshots
// are immutable and share unchanged state copy-on-write, so retention is
// cheap; the bound exists only to cap worst-case memory on fast tickers.
const retainedSnapshots = 8

// bodyCacheBytes is each ring slot's response-body budget: the bytes of
// request keys, bodies as sent and ETags it may hold. A body that would
// pass it is served uncached; the slot's bodies go when it leaves the
// ring, so the ring holds at most retainedSnapshots times this.
const bodyCacheBytes = 1 << 20

// retained is one ring slot: the round plus the wall-clock instant the
// server first observed it — the snapshot tick timeline Last-Modified is
// derived from — and the round's cache of encoded responses (DESIGN.md
// section 8). A snapshot never changes, so neither does the answer to the
// same request against it.
type retained struct {
	snap Snapshot
	at   time.Time

	// bodies maps a request key (bodyKey) to its 200 answer; size counts
	// the bytes held against bodyCacheBytes. Both are guarded by
	// Server.mu.
	bodies map[string]cachedBody
	size   int
}

// cachedBody is one stored 200 answer: the body exactly as sent (gzipped
// when gzip is set) and its representation-specific ETag.
type cachedBody struct {
	body []byte
	tag  string
	gzip bool
}

// Server is the /api/v1 handler.
type Server struct {
	provider Provider
	subs     *subscribe.Registry
	sinks    *deliver.Manager
	mux      *http.ServeMux

	// StreamHeartbeat is the SSE comment-frame cadence keeping idle
	// /api/v1/stream connections alive through proxies. Tune it before
	// serving; the default is defaultStreamHeartbeat.
	StreamHeartbeat time.Duration

	mu     sync.Mutex
	recent map[int64]*retained
	order  []int64 // retained versions, oldest first (versions are monotonic)
}

// New builds the API server over a snapshot provider. Mount it at the host
// mux root (it routes full /api/v1/... paths).
func New(p Provider) *Server {
	s := &Server{provider: p, subs: p.Subscriptions(), recent: map[int64]*retained{}, StreamHeartbeat: defaultStreamHeartbeat}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/api/v1/sources", s.endpoint(handleSources))
	s.mux.HandleFunc("/api/v1/contributors", s.endpoint(handleContributors))
	s.mux.HandleFunc("/api/v1/influencers", s.endpoint(handleInfluencers))
	s.mux.HandleFunc("/api/v1/stories", s.endpoint(handleStories))
	s.mux.HandleFunc("/api/v1/sentiment", s.endpoint(handleSentiment))
	s.mux.HandleFunc("/api/v1/trending", s.endpoint(handleTrending))
	s.mux.HandleFunc("/api/v1/search", s.endpoint(handleSearch))
	s.mux.HandleFunc("/api/v1/watch", s.handleWatch)
	s.mux.HandleFunc("/api/v1/stream", s.handleStream)
	// Push-sink management exists only over providers that own a delivery
	// manager; everyone else keeps 404 semantics for the paths.
	if dp, ok := p.(SinkProvider); ok {
		if s.sinks = dp.Sinks(); s.sinks != nil {
			s.mux.HandleFunc("/api/v1/sinks", s.handleSinks)
			s.mux.HandleFunc("/api/v1/sinks/", s.handleSink)
		}
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// page is one endpoint's answer from a pinned snapshot: the items, the
// pre-pagination total, the rank of the window's first item and — for
// windowed endpoints — the opaque resume cursor of the next page.
type page struct {
	items any
	total int
	start int
	next  string
}

// encode renders the page's envelope: an assessment page by the hand
// encoder (encode.go), any other item type through encoding/json.
func (pg page) encode(snapshot int64) ([]byte, error) {
	if ap, ok := pg.items.(assessmentPage); ok {
		return ap.appendEnvelope(nil, snapshot, pg.total, pg.start, pg.next)
	}
	return json.Marshal(NewEnvelope(snapshot, pg.total, pg.start, pg.next, pg.items))
}

// handlerFunc answers one endpoint from a pinned snapshot, or a
// binding/validation error (answered as 400).
type handlerFunc func(st Snapshot, v url.Values) (page, error)

// gzipMinSize is the smallest envelope worth compressing: below it the
// gzip framing costs more than it saves.
const gzipMinSize = 512

// endpoint wraps a handler with the shared serving machinery: method
// check, snapshot resolution/pinning, the per-round body cache, envelope,
// conditional serving (ETag/If-None-Match and
// Last-Modified/If-Modified-Since) and gzip.
func (s *Server) endpoint(fn handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		v := r.URL.Query()
		slot, status, err := s.resolveSnapshot(v.Get("snapshot"))
		if err != nil {
			writeError(w, status, err.Error())
			return
		}
		st := slot.snap
		gzOK := acceptsGzip(r)
		key := bodyKey(r.URL.Path, v, gzOK)
		cb, hit := s.lookupBody(slot, key)
		if !hit {
			if cb, status, err = render(fn, st, v, gzOK); err != nil {
				writeError(w, status, err.Error())
				return
			}
			s.storeBody(slot, key, cb)
		}
		h := w.Header()
		h.Set("Content-Type", "application/json; charset=utf-8")
		h.Set("Vary", "Accept-Encoding")
		h.Set("ETag", cb.tag)
		h.Set("X-Informer-Snapshot", strconv.FormatInt(st.Version(), 10))
		h.Set("Last-Modified", slot.at.UTC().Format(http.TimeFormat))
		// Conditional serving: If-None-Match wins when present (RFC 9110);
		// If-Modified-Since compares against the round's tick instant.
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			if etag.Match(inm, cb.tag) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		} else if ims := r.Header.Get("If-Modified-Since"); ims != "" {
			if t, err := http.ParseTime(ims); err == nil && !slot.at.Truncate(time.Second).After(t) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		if cb.gzip {
			h.Set("Content-Encoding", "gzip")
		}
		w.Write(cb.body)
	}
}

// render answers one request from a snapshot: the handler's page,
// encoded, tagged and compressed as it is sent. Binding errors answer 400
// (or the status a statusError carries), encoding errors 500.
func render(fn handlerFunc, st Snapshot, v url.Values, gzOK bool) (cachedBody, int, error) {
	pg, err := fn(st, v)
	if err != nil {
		status := http.StatusBadRequest
		var se *statusError
		if errors.As(err, &se) {
			status = se.status
		}
		return cachedBody{}, status, err
	}
	body, err := pg.encode(st.Version())
	if err != nil {
		return cachedBody{}, http.StatusInternalServerError, err
	}
	gz := gzOK && len(body) >= gzipMinSize
	// The ETag is strong and representation-specific: the gzip variant
	// carries a distinct tag (nginx-style suffix), so a cache can never
	// serve compressed bytes against an identity validator.
	tag := `"` + etag.Hash(body)
	if gz {
		tag += "-gzip"
		body = gzipBytes(body)
	}
	return cachedBody{body: body, tag: tag + `"`, gzip: gz}, 0, nil
}

// bodyKey names one response within a round: the path, the query string
// in its sorted form and the representation the client accepts.
func bodyKey(path string, v url.Values, gzOK bool) string {
	rep := "identity"
	if gzOK {
		rep = "gzip"
	}
	return path + "?" + v.Encode() + " " + rep
}

// lookupBody looks a request up in its round's body cache.
func (s *Server) lookupBody(slot *retained, key string) (cachedBody, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cb, ok := slot.bodies[key]
	return cb, ok
}

// storeBody keeps a 200 answer in its round's body cache while the slot's
// budget allows. A slot that already left the ring may still be stored
// into by a request in flight; it is unreachable, so the body goes with it.
func (s *Server) storeBody(slot *retained, key string, cb cachedBody) {
	n := len(key) + len(cb.body) + len(cb.tag)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := slot.bodies[key]; dup || slot.size+n > bodyCacheBytes {
		return
	}
	if slot.bodies == nil {
		slot.bodies = map[string]cachedBody{}
	}
	slot.bodies[key] = cb
	slot.size += n
}

// acceptsGzip reports whether the request allows a gzip response body: the
// coding is listed and not refused by a zero qvalue (RFC 9110 allows up to
// three decimals, so q=0, q=0.0 and q=0.000 all opt out).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(enc) != "gzip" {
			continue
		}
		if !hasQ {
			return true
		}
		qs := strings.TrimPrefix(strings.TrimSpace(params), "q=")
		q, err := strconv.ParseFloat(qs, 64)
		return err != nil || q > 0 // malformed qvalues read as acceptance
	}
	return false
}

// gzipWriters pools compressors: a gzip.Writer at DefaultCompression
// holds about 0.8 MB of deflate state, which Reset reuses.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// gzipBytes compresses one response body; the bytes equal a fresh
// gzip.NewWriter's.
func gzipBytes(body []byte) []byte {
	// JSON pages compress about four to one.
	buf := bytes.NewBuffer(make([]byte, 0, len(body)/4+1024))
	zw := gzipWriters.Get().(*gzip.Writer)
	zw.Reset(buf)
	zw.Write(body)
	zw.Close()
	gzipWriters.Put(zw)
	return buf.Bytes()
}

// observe reads the provider's current snapshot and remembers it in the
// retention ring, so any version a client has ever seen in an envelope was
// retained at that moment. It returns the round's slot.
func (s *Server) observe() *retained {
	return s.remember(s.provider.Snapshot())
}

// remember records a round in the retention ring (first observation wins,
// stamping the round's Last-Modified instant) and returns its slot. A
// round leaving the ring takes its body cache with it.
func (s *Server) remember(st Snapshot) *retained {
	if st == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, seen := s.recent[st.Version()]
	if !seen {
		slot = &retained{snap: st, at: time.Now()}
		s.recent[st.Version()] = slot
		s.order = append(s.order, st.Version())
		for len(s.order) > retainedSnapshots {
			delete(s.recent, s.order[0])
			s.order = s.order[1:]
		}
	}
	return slot
}

// slot looks a version up in the retention ring.
func (s *Server) slot(v int64) (*retained, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.recent[v]
	return slot, ok
}

// resolveSnapshot returns the ring slot a request is served from: the
// pinned round when ?snapshot=N names a retained version, the current
// round otherwise.
func (s *Server) resolveSnapshot(param string) (*retained, int, error) {
	cur := s.observe()
	if param == "" {
		return cur, 0, nil
	}
	want, err := strconv.ParseInt(param, 10, 64)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad snapshot token %q", param)
	}
	if want == cur.snap.Version() {
		return cur, 0, nil
	}
	if pinned, ok := s.slot(want); ok {
		return pinned, 0, nil
	}
	return nil, http.StatusGone, fmt.Errorf("snapshot %d is no longer retained; restart from the current round", want)
}

// Envelope is the pagination wrapper of every /api/v1 response.
type Envelope struct {
	APIVersion string `json:"api_version"`
	// Snapshot is the assessment round every item in this response was
	// computed from; echo it as ?snapshot=N to pin a paginated walk.
	Snapshot int64 `json:"snapshot"`
	// Total counts the matches before top-k selection and pagination
	// (sources, contributors, influencers, sentiment). Trending and
	// search are generators bounded by k at the source, so there Total
	// equals Count.
	Total int `json:"total"`
	// Offset is the rank of the page's first item (QueryResult.Start): 0
	// on a first page, the cursor's position on a resumed one. It is a
	// report, not a request parameter — ?offset= is rejected.
	Offset int `json:"offset"`
	Count  int `json:"count"`
	// NextCursor resumes the walk on the following page when echoed as
	// ?cursor= (keyset pagination: a resumed page costs one lean pass,
	// however deep the walk is). Empty when the walk is exhausted; only
	// the windowed endpoints (sources, contributors) ever set it. Pair it
	// with ?snapshot= to keep a walk on one assessment round.
	NextCursor string `json:"next_cursor,omitempty"`
	Items      any    `json:"items"`
}

// NewEnvelope wraps one response page. It is exported (with the item
// constructors below) so tests and in-process consumers can reproduce a
// response byte for byte.
func NewEnvelope(snapshot int64, total, start int, nextCursor string, items any) Envelope {
	count := 0
	if items != nil {
		if v := reflect.ValueOf(items); v.Kind() == reflect.Slice {
			count = v.Len()
		}
	}
	return Envelope{APIVersion: "v1", Snapshot: snapshot, Total: total, Offset: start, Count: count, NextCursor: nextCursor, Items: items}
}

// NextCursorOf renders a query result's resume cursor in its wire form —
// the next_cursor value of the page's envelope ("" when the walk is
// done). shards is the serving snapshot's shard count, stamped into the
// token so a resume against a re-sharded corpus fails closed.
func NextCursorOf(res *quality.QueryResult, shards int) string {
	if res.Next == nil {
		return ""
	}
	return EncodeCursor(*res.Next, shards)
}

// statusError carries a non-400 HTTP status through the handler return
// path (the endpoint wrapper answers 400 for plain binding errors).
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// checkCursorShards enforces the cursor token's shard tag against the
// serving snapshot: a walk resumed across a corpus re-sharding answers
// 410 Gone, mirroring the aged-out ?snapshot= pin. Called after BindQuery
// succeeded, so the token is known to decode.
func checkCursorShards(st Snapshot, v url.Values) error {
	tok := v.Get("cursor")
	if tok == "" {
		return nil
	}
	_, shards, err := DecodeCursor(tok)
	if err != nil {
		return err
	}
	if have := st.ShardCount(); shards != have {
		return &statusError{http.StatusGone, fmt.Sprintf("cursor was minted under %d shard(s) but the corpus now has %d; restart the walk", shards, have)}
	}
	return nil
}

// Item is the wire form of one Assessment. Raw and Normalized appear only
// under fields=full (the ProjectFull projection). It is the reference
// wire type: the sources and contributors handlers write the same bytes
// by hand (encode.go) instead of marshalling it.
type Item struct {
	ID         int                `json:"id"`
	Name       string             `json:"name"`
	Score      float64            `json:"score"`
	Dimensions map[string]float64 `json:"dimensions"`
	Attributes map[string]float64 `json:"attributes"`
	Raw        map[string]float64 `json:"raw,omitempty"`
	Normalized map[string]float64 `json:"normalized,omitempty"`
}

// AssessmentItems converts assessments to their wire form, for tests and
// in-process consumers that marshal the reference Item type.
func AssessmentItems(as []*quality.Assessment) []Item {
	items := make([]Item, len(as))
	for i, a := range as {
		dims := make(map[string]float64, len(a.DimensionScores))
		for d, v := range a.DimensionScores {
			dims[d.String()] = v
		}
		atts := make(map[string]float64, len(a.AttributeScores))
		for at, v := range a.AttributeScores {
			atts[at.String()] = v
		}
		items[i] = Item{
			ID:         a.ID,
			Name:       a.Name,
			Score:      a.Score,
			Dimensions: dims,
			Attributes: atts,
			Raw:        a.Raw,
			Normalized: a.Normalized,
		}
	}
	return items
}

// InfluencerItem is the wire form of one detected opinion leader.
type InfluencerItem struct {
	ID              int     `json:"id"`
	Name            string  `json:"name"`
	Influence       float64 `json:"influence"`
	Score           float64 `json:"score"`
	Interactions    int     `json:"interactions"`
	RepliesReceived int     `json:"replies_received"`
}

// InfluencerItems converts influencers to their wire form.
func InfluencerItems(infs []quality.Influencer) []InfluencerItem {
	items := make([]InfluencerItem, len(infs))
	for i, inf := range infs {
		items[i] = InfluencerItem{
			ID:              inf.Record.ID,
			Name:            inf.Record.Name,
			Influence:       inf.InfluenceScore,
			Score:           inf.Assessment.Score,
			Interactions:    inf.Record.Interactions,
			RepliesReceived: inf.Record.RepliesReceived,
		}
	}
	return items
}

// SentimentItem is the wire form of one per-category indicator.
type SentimentItem struct {
	Category string  `json:"category"`
	Mean     float64 `json:"mean"`
	N        int     `json:"n"`
}

// SentimentItems converts (and deterministically orders) indicator maps.
func SentimentItems(ind map[string]sentiment.Indicator, categories []string) []SentimentItem {
	cats := categories
	if len(cats) == 0 {
		cats = make([]string, 0, len(ind))
		for cat := range ind {
			cats = append(cats, cat)
		}
		sort.Strings(cats)
	}
	items := make([]SentimentItem, 0, len(cats))
	for _, cat := range cats {
		i, ok := ind[cat]
		if !ok {
			continue
		}
		items = append(items, SentimentItem{Category: cat, Mean: i.Mean, N: i.N})
	}
	return items
}

// TermItem is the wire form of one trending term.
type TermItem struct {
	Term  string  `json:"term"`
	Score float64 `json:"score"`
	Fg    int     `json:"fg"`
	Bg    int     `json:"bg"`
}

// TermItems converts buzz terms to their wire form.
func TermItems(terms []buzz.Term) []TermItem {
	items := make([]TermItem, len(terms))
	for i, t := range terms {
		items[i] = TermItem{Term: t.Word, Score: t.Score, Fg: t.FgCount, Bg: t.BgCount}
	}
	return items
}

// SearchItem is the wire form of one baseline search hit.
type SearchItem struct {
	SourceID int     `json:"source_id"`
	Score    float64 `json:"score"`
}

// SearchItems converts search results to their wire form.
func SearchItems(results []search.Result) []SearchItem {
	items := make([]SearchItem, len(results))
	for i, r := range results {
		items[i] = SearchItem{SourceID: r.SourceID, Score: r.Score}
	}
	return items
}

func handleSources(st Snapshot, v url.Values) (page, error) {
	return assessmentQuery(st, v, st.QuerySources, sourceMeasureOrder)
}

func handleContributors(st Snapshot, v url.Values) (page, error) {
	return assessmentQuery(st, v, st.QueryContributors, contributorMeasureOrder)
}

// assessmentQuery answers a windowed assessment endpoint: the bound query
// run by query, its page written by the hand encoder in the catalogue's
// measure order.
func assessmentQuery(st Snapshot, v url.Values, query func(quality.Query) (*quality.QueryResult, error), measures []named[string]) (page, error) {
	q, err := BindQuery(v)
	if err != nil {
		return page{}, err
	}
	if err := checkCursorShards(st, v); err != nil {
		return page{}, err
	}
	res, err := query(q)
	if err != nil {
		return page{}, err
	}
	return page{assessmentPage{res.Items, measures}, res.Total, res.Start, NextCursorOf(res, st.ShardCount())}, nil
}

// handleInfluencers binds a contributor query ranked by influence: the
// strategy is the sort key, k the top-k bound (default 10, 0 = all) and
// min_interactions the activity floor (default and minimum 1).
func handleInfluencers(st Snapshot, v url.Values) (page, error) {
	q := quality.Query{Sort: quality.SortKey{By: quality.SortByInfluence, Strategy: quality.Combined},
		Fields: quality.ProjectScores}
	switch strat := v.Get("strategy"); strat {
	case "", "combined":
	case "by-activity":
		q.Sort.Strategy = quality.ByActivity
	case "by-relative":
		q.Sort.Strategy = quality.ByRelative
	default:
		return page{}, fmt.Errorf("unknown strategy %q", strat)
	}
	var err error
	if q.TopK, err = intParam(v, "k", 10); err != nil {
		return page{}, err
	}
	if q.MinInteractions, err = intParam(v, "min_interactions", 0); err != nil {
		return page{}, err
	}
	q.MinInteractions = max(q.MinInteractions, 1)
	res, err := st.QueryContributors(q)
	if err != nil {
		return page{}, err
	}
	infs, err := quality.InfluencersOf(q, res, st.ContributorRecords())
	if err != nil {
		return page{}, err
	}
	return page{items: InfluencerItems(infs), total: res.Total}, nil
}

func handleSentiment(st Snapshot, v url.Values) (page, error) {
	items := SentimentItems(st.SentimentByCategory(), multiParam(v, "category"))
	return page{items: items, total: len(items)}, nil
}

func handleTrending(st Snapshot, v url.Values) (page, error) {
	category := v.Get("category")
	if category == "" {
		return page{}, fmt.Errorf("missing required parameter category")
	}
	k, err := intParam(v, "k", 10)
	if err != nil {
		return page{}, err
	}
	items := TermItems(st.TrendingTerms(category, k))
	return page{items: items, total: len(items)}, nil
}

func handleSearch(st Snapshot, v url.Values) (page, error) {
	query := v.Get("q")
	if query == "" {
		return page{}, fmt.Errorf("missing required parameter q")
	}
	k, err := intParam(v, "k", 10)
	if err != nil {
		return page{}, err
	}
	items := SearchItems(st.Search(query, k))
	return page{items: items, total: len(items)}, nil
}

// BindQuery binds a URL query string to a quality.Query:
//
//	category=place&category=pulse     scope (repeatable)
//	kind=blog&id=3&id=17              scope (sources: kind; both repeatable)
//	min_score=0.6                     overall-score predicate
//	min_dim.time=0.5                  per-dimension predicate
//	min_att.relevance=0.4             per-attribute predicate
//	min_measure.src.time.liveliness=0.3
//	spam_resistance=0.25              contributor spam-resistance predicate
//	sort=score | dim.<name> | att.<name>
//	k=10&limit=20                     top-k bound and page width
//	cursor=<next_cursor>              keyset resume
//	fields=scores | full              projection (default full)
//
// Exported so tests and other mounts can reuse the binding.
func BindQuery(v url.Values) (quality.Query, error) {
	var q quality.Query
	q.Categories = multiParam(v, "category")
	q.Kinds = multiParam(v, "kind")
	for _, s := range multiParam(v, "id") {
		id, err := strconv.Atoi(s)
		if err != nil {
			return q, fmt.Errorf("bad id %q", s)
		}
		q.IDs = append(q.IDs, id)
	}
	var err error
	if q.MinScore, err = floatParam(v, "min_score", 0); err != nil {
		return q, err
	}
	if q.MinSpamResistance, err = floatParam(v, "spam_resistance", 0); err != nil {
		return q, err
	}
	// Prefixed predicate families. Iterate sorted keys so error messages
	// are deterministic.
	keys := make([]string, 0, len(v))
	for key := range v {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		switch {
		case strings.HasPrefix(key, "min_dim."):
			name := strings.TrimPrefix(key, "min_dim.")
			d, ok := quality.ParseDimension(name)
			if !ok {
				return q, fmt.Errorf("unknown dimension %q", name)
			}
			val, err := strconv.ParseFloat(v.Get(key), 64)
			if err != nil {
				return q, fmt.Errorf("bad %s: %q", key, v.Get(key))
			}
			if q.MinDimension == nil {
				q.MinDimension = map[quality.Dimension]float64{}
			}
			q.MinDimension[d] = val
		case strings.HasPrefix(key, "min_att."):
			name := strings.TrimPrefix(key, "min_att.")
			at, ok := quality.ParseAttribute(name)
			if !ok {
				return q, fmt.Errorf("unknown attribute %q", name)
			}
			val, err := strconv.ParseFloat(v.Get(key), 64)
			if err != nil {
				return q, fmt.Errorf("bad %s: %q", key, v.Get(key))
			}
			if q.MinAttribute == nil {
				q.MinAttribute = map[quality.Attribute]float64{}
			}
			q.MinAttribute[at] = val
		case strings.HasPrefix(key, "min_measure."):
			id := strings.TrimPrefix(key, "min_measure.")
			val, err := strconv.ParseFloat(v.Get(key), 64)
			if err != nil {
				return q, fmt.Errorf("bad %s: %q", key, v.Get(key))
			}
			if q.MinMeasure == nil {
				q.MinMeasure = map[string]float64{}
			}
			q.MinMeasure[id] = val
		}
	}
	switch srt := v.Get("sort"); {
	case srt == "" || srt == "score":
	case strings.HasPrefix(srt, "dim."):
		d, ok := quality.ParseDimension(strings.TrimPrefix(srt, "dim."))
		if !ok {
			return q, fmt.Errorf("unknown sort %q", srt)
		}
		q.Sort = quality.SortKey{By: quality.SortByDimension, Dimension: d}
	case strings.HasPrefix(srt, "att."):
		at, ok := quality.ParseAttribute(strings.TrimPrefix(srt, "att."))
		if !ok {
			return q, fmt.Errorf("unknown sort %q", srt)
		}
		q.Sort = quality.SortKey{By: quality.SortByAttribute, Attribute: at}
	default:
		return q, fmt.Errorf("unknown sort %q", srt)
	}
	if q.TopK, err = intParam(v, "k", 0); err != nil {
		return q, err
	}
	if _, ok := v["offset"]; ok {
		// Retired, not ignored: ignoring it would answer a deep page
		// request with the first page.
		return q, fmt.Errorf("offset pagination is retired: page by passing each response's next_cursor back as cursor=")
	}
	if q.Limit, err = intParam(v, "limit", 0); err != nil {
		return q, err
	}
	if tok := v.Get("cursor"); tok != "" {
		// The shard tag is validated against the serving snapshot by
		// checkCursorShards (410 semantics); the bound query itself is
		// shard-agnostic.
		c, _, err := DecodeCursor(tok)
		if err != nil {
			return q, err
		}
		q.After = &c
	}
	switch f := v.Get("fields"); f {
	case "", "full":
		q.Fields = quality.ProjectFull
	case "scores":
		q.Fields = quality.ProjectScores
	default:
		return q, fmt.Errorf("unknown fields %q (use full or scores)", f)
	}
	return q, nil
}

// EncodeQuery renders a bound query back into its canonical URL form: the
// exact inverse of BindQuery up to set order and number spelling. For any
// query BindQuery accepts, BindQuery(EncodeQuery(q)) succeeds and yields a
// query with the same CanonicalKey — the round-trip FuzzBindQuery pins.
// Default values are omitted, sets are sorted and deduplicated, and floats
// are spelled in their shortest exact form.
func EncodeQuery(q quality.Query) url.Values {
	v := url.Values{}
	for _, id := range sortedDedupInts(q.IDs) {
		v.Add("id", strconv.Itoa(id))
	}
	for _, cat := range sortedDedupStrings(q.Categories) {
		v.Add("category", cat)
	}
	for _, kind := range sortedDedupStrings(q.Kinds) {
		v.Add("kind", kind)
	}
	if q.MinScore != 0 {
		v.Set("min_score", formatFloat(q.MinScore))
	}
	if q.MinSpamResistance != 0 {
		v.Set("spam_resistance", formatFloat(q.MinSpamResistance))
	}
	for _, d := range sortedDimensions(q.MinDimension) {
		v.Set("min_dim."+d.String(), formatFloat(q.MinDimension[d]))
	}
	for _, at := range sortedAttributes(q.MinAttribute) {
		v.Set("min_att."+at.String(), formatFloat(q.MinAttribute[at]))
	}
	for _, id := range sortedDedupStrings(measureIDs(q.MinMeasure)) {
		v.Set("min_measure."+id, formatFloat(q.MinMeasure[id]))
	}
	switch q.Sort.By {
	case quality.SortByDimension:
		v.Set("sort", "dim."+q.Sort.Dimension.String())
	case quality.SortByAttribute:
		v.Set("sort", "att."+q.Sort.Attribute.String())
	}
	if q.TopK != 0 {
		v.Set("k", strconv.Itoa(q.TopK))
	}
	if q.Limit != 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.After != nil {
		// A re-encoded query carries no snapshot context; tag for one
		// shard, the default (the tag does not affect CanonicalKey, which is
		// what the FuzzBindQuery round-trip pins).
		v.Set("cursor", EncodeCursor(*q.After, 1))
	}
	if q.Fields == quality.ProjectScores {
		v.Set("fields", "scores")
	}
	return v
}

// formatFloat spells a float in the shortest form that parses back to the
// identical bit pattern.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func sortedDedupInts(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	out := append([]int(nil), xs...)
	sort.Ints(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func sortedDedupStrings(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	out := append([]string(nil), xs...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func sortedDimensions(m map[quality.Dimension]float64) []quality.Dimension {
	out := make([]quality.Dimension, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedAttributes(m map[quality.Attribute]float64) []quality.Attribute {
	out := make([]quality.Attribute, 0, len(m))
	for at := range m {
		out = append(out, at)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func measureIDs(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

// multiParam collects a repeatable parameter, also splitting on commas.
func multiParam(v url.Values, key string) []string {
	var out []string
	for _, raw := range v[key] {
		for _, part := range strings.Split(raw, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

func intParam(v url.Values, key string, def int) (int, error) {
	s := v.Get(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", key, s)
	}
	return n, nil
}

func floatParam(v url.Values, key string, def float64) (float64, error) {
	s := v.Get(key)
	if s == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %q", key, s)
	}
	return f, nil
}

// writeError answers a JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Watch long-poll tuning. The default wait keeps one request per ~25s per
// idle watcher; the cap bounds how long a handler can pin its goroutine.
const (
	defaultWatchWait = 25 * time.Second
	maxWatchWait     = 55 * time.Second
)

// WatchEnvelope is the /api/v1/watch response: the rank movement of one
// standing query's window between the observer's last-seen assessment
// round ("since") and the answered one ("snapshot"). An empty Changes
// with snapshot == since means the wait deadline passed without a newer
// round — re-issue the request to keep watching.
type WatchEnvelope struct {
	APIVersion string       `json:"api_version"`
	Since      int64        `json:"since"`
	Snapshot   int64        `json:"snapshot"`
	Count      int          `json:"count"`
	Changes    []ChangeItem `json:"changes"`
}

// NewWatchEnvelope wraps one watch delta; exported so tests can reproduce
// a response byte for byte.
func NewWatchEnvelope(since, snapshot int64, changes []ChangeItem) WatchEnvelope {
	if changes == nil {
		changes = []ChangeItem{}
	}
	return WatchEnvelope{APIVersion: "v1", Since: since, Snapshot: snapshot, Count: len(changes), Changes: changes}
}

// ChangeItem is the wire form of one window movement: a row that entered,
// left, or moved within the watched window. Ranks are 1-based window
// positions; a zero (omitted) rank means the row was not in that round's
// window.
type ChangeItem struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	Event   string  `json:"event"` // "entered" | "left" | "moved"
	OldRank int     `json:"old_rank,omitempty"`
	NewRank int     `json:"new_rank,omitempty"`
	Score   float64 `json:"score"`
}

// ChangeItems converts window changes to their wire form.
func ChangeItems(changes []quality.WindowChange) []ChangeItem {
	items := make([]ChangeItem, len(changes))
	for i, c := range changes {
		items[i] = ChangeItem{
			ID:      c.ID,
			Name:    c.Name,
			Event:   c.Event(),
			OldRank: c.OldRank,
			NewRank: c.NewRank,
			Score:   c.Score,
		}
	}
	return items
}

// BindFilter binds the delta-filter parameters shared by every
// standing-query consumer (watch, stream and push sinks):
//
//	changes=entered           only rows entering the window
//	min_rank_jump=3           moved rows must jump at least 3 positions
//	min_score_delta=0.05      moved rows must change score by at least 0.05
//
// Entries and departures always pass the numeric thresholds; see
// subscribe.Filter. The zero filter passes everything.
func BindFilter(v url.Values) (subscribe.Filter, error) {
	var f subscribe.Filter
	switch ch := v.Get("changes"); ch {
	case "", "all":
	case "entered":
		f.EnteredOnly = true
	default:
		return f, fmt.Errorf("unknown changes %q (use entered or all)", ch)
	}
	var err error
	jump, err := intParam(v, "min_rank_jump", 0)
	if err != nil {
		return f, err
	}
	if jump < 0 {
		return f, fmt.Errorf("bad min_rank_jump: must not be negative")
	}
	f.MinRankJump = jump
	delta, err := floatParam(v, "min_score_delta", 0)
	if err != nil {
		return f, err
	}
	if delta < 0 || math.IsNaN(delta) {
		return f, fmt.Errorf("bad min_score_delta: must be a non-negative number")
	}
	f.MinScoreDelta = delta
	return f, nil
}

// bindWatchQuery parses the shared validation of the standing-query
// transports: the since token (required unless optional), the wait bound,
// the query itself (bound exactly like /api/v1/sources; pagination
// positions are rejected — bound standing windows with k= or limit=) and
// the optional delta filter.
func bindWatchQuery(v url.Values, sinceRequired bool) (since int64, wait time.Duration, q quality.Query, f subscribe.Filter, err error) {
	sinceStr := v.Get("since")
	if sinceStr == "" {
		if sinceRequired {
			return 0, 0, q, f, fmt.Errorf("missing required parameter since (the last snapshot consumed)")
		}
	} else {
		if since, err = strconv.ParseInt(sinceStr, 10, 64); err != nil {
			return 0, 0, q, f, fmt.Errorf("bad since %q", sinceStr)
		}
	}
	wait = defaultWatchWait
	if ws := v.Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil {
			return 0, 0, q, f, fmt.Errorf("bad wait %q", ws)
		}
		if d < 0 {
			d = 0
		}
		if d > maxWatchWait {
			d = maxWatchWait
		}
		wait = d
	}
	if q, err = BindQuery(v); err != nil {
		return 0, 0, q, f, err
	}
	if q.After != nil {
		return 0, 0, q, f, fmt.Errorf("standing windows do not paginate; bound them with k or limit")
	}
	if f, err = BindFilter(v); err != nil {
		return 0, 0, q, f, err
	}
	return since, wait, q, f, nil
}

// handleWatch serves GET /api/v1/watch?since=N[&wait=30s]&<query...>: the
// long-poll transport of the standing-query subsystem. since names the
// last assessment round the observer has consumed. An observer behind the
// current round is answered immediately with the entered/left/moved rows
// between the retained since-round's window and the current one (410 Gone
// when since aged out of the ring — re-sync from a full read). An
// up-to-date observer parks as a registry subscriber: the next tick's
// delta — evaluated once per distinct query, however many watchers share
// it — answers the poll, or the wait deadline answers an empty delta.
// With a delta filter bound, ticks whose filtered delta is empty keep the
// poll parked (the eventual answer's since reflects the rounds consumed).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	since, wait, q, filter, err := bindWatchQuery(r.URL.Query(), true)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A parked long-poll outlives the server's write timeout by design;
	// push the connection's write deadline past the wait bound instead
	// (no-op on writers without deadline support).
	http.NewResponseController(w).SetWriteDeadline(time.Now().Add(wait + 10*time.Second))
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		cur := s.observe().snap
		if cur.Version() < since {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("snapshot %d has not been published (current is %d)", since, cur.Version()))
			return
		}
		if cur.Version() > since {
			env, status, err := s.catchUp(since, cur, q, filter)
			if err != nil {
				writeError(w, status, err.Error())
				return
			}
			writeWatch(w, r, env)
			return
		}
		// Up to date: park on the shared subscription. Subscribe syncs the
		// registry to the provider's current round first, so the baseline
		// can never trail what we just observed.
		sub, err := s.subs.SubscribeWith(q, filter)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if sub.Since() != since {
			// A tick landed between observe and Subscribe: serve the gap
			// from the ring (the since round was registered just above).
			sub.Close()
			continue
		}
		select {
		case ev, ok := <-sub.Events():
			sub.Close()
			if !ok {
				continue // dropped before delivery; re-resolve via the ring
			}
			if snap, isAPI := ev.Snap.(Snapshot); isAPI {
				s.remember(snap) // keep event-delivered rounds addressable for catch-up
			}
			if !filter.Zero() && len(ev.Changes) == 0 {
				// Nothing passed the filter this tick: keep the poll
				// parked on the advanced token instead of answering an
				// empty delta.
				since = ev.Snapshot
				continue
			}
			writeWatch(w, r, NewWatchEnvelope(ev.Since, ev.Snapshot, ChangeItems(ev.Changes)))
			return
		case <-deadline.C:
			sub.Close()
			// Deadline with no newer round: empty delta, same token.
			writeWatch(w, r, NewWatchEnvelope(since, since, nil))
			return
		case <-r.Context().Done():
			sub.Close()
			return
		}
	}
}

// catchUp answers the delta between a retained past round and the current
// one — the shared re-sync path of both standing-query transports, so
// watch and stream agree on 410 semantics by construction. The delta
// filter applies to the spanning diff exactly as it would to the per-tick
// events it replaces.
func (s *Server) catchUp(since int64, cur Snapshot, q quality.Query, f subscribe.Filter) (WatchEnvelope, int, error) {
	old, ok := s.slot(since)
	if !ok {
		return WatchEnvelope{}, http.StatusGone, fmt.Errorf("snapshot %d is no longer retained; re-sync from the current round", since)
	}
	oldRes, err := old.snap.QuerySources(q)
	if err != nil {
		return WatchEnvelope{}, http.StatusBadRequest, err
	}
	newRes, err := cur.QuerySources(q)
	if err != nil {
		return WatchEnvelope{}, http.StatusBadRequest, err
	}
	changes := f.Apply(quality.DiffWindows(oldRes.Items, newRes.Items), oldRes.Items)
	return NewWatchEnvelope(since, cur.Version(), ChangeItems(changes)), 0, nil
}

// writeWatch answers one watch envelope (gzip-compressed when the client
// accepts it and the delta is large enough to benefit).
func writeWatch(w http.ResponseWriter, r *http.Request, env WatchEnvelope) {
	body, err := json.Marshal(env)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Vary", "Accept-Encoding")
	h.Set("X-Informer-Snapshot", strconv.FormatInt(env.Snapshot, 10))
	if acceptsGzip(r) && len(body) >= gzipMinSize {
		h.Set("Content-Encoding", "gzip")
		body = gzipBytes(body)
	}
	w.Write(body)
}
