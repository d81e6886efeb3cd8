// Package webserve exposes a webgen.World over HTTP: every synthetic source
// gets an index page, one XHTML page per discussion (with an embedded
// JSON data island carrying the machine-readable payload), and RSS/Atom
// feeds. A sitemap lists all sources so a crawler can discover them.
//
// This is substitution S2 of DESIGN.md: the crawler-facing surface of the
// live Web the paper crawled.
package webserve

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"

	"github.com/informing-observers/informer/internal/etag"
	"github.com/informing-observers/informer/internal/feed"
	"github.com/informing-observers/informer/internal/webgen"
	"github.com/informing-observers/informer/internal/wire"
)

// Server serves a World.
type Server struct {
	world *webgen.World
	mux   *http.ServeMux
}

// New returns a Server for the given world.
func New(world *webgen.World) *Server {
	s := &Server{world: world, mux: http.NewServeMux()}
	s.mux.HandleFunc("/sitemap.txt", s.handleSitemap)
	s.mux.HandleFunc("/robots.txt", s.handleRobots)
	s.mux.HandleFunc("/s/", s.handleSource)
	s.mux.HandleFunc("/", s.handleRoot)
	return s
}

// ServeHTTP implements http.Handler. GET responses carry strong ETags
// (content hashes) and honour If-None-Match with 304 Not Modified, so
// crawlers can re-crawl incrementally.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &etagRecorder{inner: w}
	s.mux.ServeHTTP(rec, r)
	rec.flush(r)
}

// etagRecorder buffers a response, stamps an ETag over the body, and
// answers 304 when the client already holds the current version. A HEAD
// request gets GET's validator and the same 304, as RFC 9110 has it, and
// no body.
type etagRecorder struct {
	inner  http.ResponseWriter
	status int
	body   []byte
}

func (e *etagRecorder) Header() http.Header { return e.inner.Header() }

func (e *etagRecorder) WriteHeader(status int) { e.status = status }

func (e *etagRecorder) Write(p []byte) (int, error) {
	e.body = append(e.body, p...)
	return len(p), nil
}

func (e *etagRecorder) flush(r *http.Request) {
	status := e.status
	if status == 0 {
		status = http.StatusOK
	}
	head := r.Method == http.MethodHead
	if status == http.StatusOK && (r.Method == http.MethodGet || head) {
		tag := fmt.Sprintf("%q", etag.Hash(e.body))
		e.inner.Header().Set("ETag", tag)
		if etag.Match(r.Header.Get("If-None-Match"), tag) {
			e.inner.WriteHeader(http.StatusNotModified)
			return
		}
	}
	e.inner.WriteHeader(status)
	if !head {
		e.inner.Write(e.body)
	}
}

func (s *Server) handleRoot(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><head><title>web20.test</title></head><body>")
	fmt.Fprintf(w, "<h1>Synthetic Web 2.0 corpus</h1><p>%d sources.</p>", len(s.world.Sources))
	fmt.Fprintf(w, `<p><a href="/sitemap.txt">sitemap</a></p></body></html>`)
}

func (s *Server) handleRobots(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "User-agent: *\nAllow: /\n")
}

func (s *Server) handleSitemap(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, src := range s.world.Sources {
		fmt.Fprintf(w, "/s/%d/\n", src.ID)
	}
}

// handleSource dispatches /s/{id}/..., the per-source subtree.
func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/s/")
	parts := strings.SplitN(rest, "/", 2)
	id, err := strconv.Atoi(parts[0])
	if err != nil {
		http.NotFound(w, r)
		return
	}
	src := s.world.Source(id)
	if src == nil {
		http.NotFound(w, r)
		return
	}
	tail := ""
	if len(parts) == 2 {
		tail = parts[1]
	}
	switch {
	case tail == "" || tail == "/":
		s.serveIndex(w, src)
	case tail == "feed.rss":
		s.serveFeed(w, src, feed.FormatRSS)
	case tail == "feed.atom":
		s.serveFeed(w, src, feed.FormatAtom)
	case strings.HasPrefix(tail, "d/"):
		did, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(tail, "d/"), "/"))
		if err != nil {
			http.NotFound(w, r)
			return
		}
		s.serveDiscussion(w, r, src, did)
	default:
		http.NotFound(w, r)
	}
}

// sourceInfo builds the wire payload for a source index page.
func (s *Server) sourceInfo(src *webgen.Source) wire.SourceInfo {
	info := wire.SourceInfo{
		ID:              src.ID,
		Name:            src.Name,
		Host:            src.Host,
		Kind:            src.Kind.String(),
		Description:     src.Description,
		Founded:         src.Founded,
		FeedSubscribers: src.FeedSubscribers,
		Locations:       src.Locations,
		OpenDiscussion:  src.OpenDiscussions(),
	}
	for _, out := range src.Outbound {
		if t := s.world.Source(out); t != nil {
			info.OutboundHosts = append(info.OutboundHosts, t.Host)
		}
	}
	for _, d := range src.Discussions {
		info.DiscussionIDs = append(info.DiscussionIDs, d.ID)
	}
	return info
}

func (s *Server) serveIndex(w http.ResponseWriter, src *webgen.Source) {
	info := s.sourceInfo(src)
	island, err := json.Marshal(info)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title>", html.EscapeString(src.Name))
	fmt.Fprintf(&b, `<link rel="alternate" type="application/rss+xml" href="/s/%d/feed.rss"/>`, src.ID)
	fmt.Fprintf(&b, `<link rel="alternate" type="application/atom+xml" href="/s/%d/feed.atom"/>`, src.ID)
	fmt.Fprint(&b, "</head><body>")
	fmt.Fprintf(&b, "<h1>%s</h1><p>%s</p>", html.EscapeString(src.Name), html.EscapeString(src.Description))
	fmt.Fprint(&b, "<ul>")
	for _, d := range src.Discussions {
		fmt.Fprintf(&b, `<li><a href="/s/%d/d/%d">%s</a></li>`, src.ID, d.ID, html.EscapeString(d.Title))
	}
	fmt.Fprint(&b, "</ul>")
	fmt.Fprintf(&b, `<script type="application/x-source-info+json">%s</script>`, island)
	fmt.Fprint(&b, "</body></html>")
	fmt.Fprint(w, b.String())
}

// discussionPayload converts a webgen discussion into its wire form.
func (s *Server) discussionPayload(d *webgen.Discussion) wire.Discussion {
	out := wire.Discussion{
		ID:       d.ID,
		SourceID: d.SourceID,
		Title:    d.Title,
		Category: d.Category,
		Opened:   d.Opened,
		Open:     d.Open,
		Tags:     d.Tags,
	}
	for _, c := range d.Comments {
		name := ""
		if u := s.world.User(c.UserID); u != nil {
			name = u.Name
		}
		wc := wire.Comment{
			ID:        c.ID,
			Author:    name,
			AuthorID:  c.UserID,
			Posted:    c.Posted,
			Body:      c.Body,
			Tags:      c.Tags,
			Replies:   c.Replies,
			Feedbacks: c.Feedbacks,
			Reads:     c.Reads,
		}
		if c.Geo != nil {
			lat, lon := c.Geo.Lat, c.Geo.Lon
			wc.Lat, wc.Lon = &lat, &lon
		}
		out.Comments = append(out.Comments, wc)
	}
	return out
}

func (s *Server) serveDiscussion(w http.ResponseWriter, r *http.Request, src *webgen.Source, did int) {
	var disc *webgen.Discussion
	for _, d := range src.Discussions {
		if d.ID == did {
			disc = d
			break
		}
	}
	if disc == nil {
		http.NotFound(w, r)
		return
	}
	payload := s.discussionPayload(disc)
	island, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	fmt.Fprintf(&b, "<html><head><title>%s</title></head><body>", html.EscapeString(disc.Title))
	fmt.Fprintf(&b, "<h1>%s</h1>", html.EscapeString(disc.Title))
	if disc.Category != "" {
		fmt.Fprintf(&b, `<p class="category">%s</p>`, html.EscapeString(disc.Category))
	}
	for _, c := range payload.Comments {
		fmt.Fprintf(&b, `<div class="comment"><span class="author">%s</span><p>%s</p></div>`,
			html.EscapeString(c.Author), html.EscapeString(c.Body))
	}
	fmt.Fprintf(&b, `<script type="application/x-discussion+json">%s</script>`, island)
	fmt.Fprint(&b, "</body></html>")
	fmt.Fprint(w, b.String())
}

func (s *Server) serveFeed(w http.ResponseWriter, src *webgen.Source, format feed.Format) {
	f := &feed.Feed{
		Title:       src.Name,
		Link:        fmt.Sprintf("http://%s/s/%d/", src.Host, src.ID),
		Description: src.Description,
	}
	for _, d := range src.Discussions {
		it := feed.Item{
			Title:     d.Title,
			Link:      fmt.Sprintf("/s/%d/d/%d", src.ID, d.ID),
			GUID:      fmt.Sprintf("d-%d", d.ID),
			Published: d.Opened,
		}
		if d.Category != "" {
			it.Categories = []string{d.Category}
		}
		if u := s.world.User(d.OpenerID); u != nil {
			it.Author = u.Name
		}
		f.Items = append(f.Items, it)
		if d.Opened.After(f.Updated) {
			f.Updated = d.Opened
		}
	}
	var data []byte
	var err error
	if format == feed.FormatRSS {
		w.Header().Set("Content-Type", "application/rss+xml; charset=utf-8")
		data, err = feed.MarshalRSS(f)
	} else {
		w.Header().Set("Content-Type", "application/atom+xml; charset=utf-8")
		data, err = feed.MarshalAtom(f)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(data)
}
