package apiserve

// /api/v1/sinks: management surface of the push-delivery engine
// (internal/deliver, DESIGN.md section 10). Where /api/v1/stream holds a
// connection open to receive a standing query's deltas, a sink inverts
// the arrow: the server POSTs the same delta envelopes to a remote
// webhook, with per-sink queueing, coalescing, bounded retries, a circuit
// breaker and eviction — so observers that cannot hold a connection
// (serverless handlers, cross-service integrations) still ride the
// one-evaluation-per-tick fan-out.
//
//	POST   /api/v1/sinks        {"name":"...", "url":"http://...",
//	                             "query":"min_score=0.6&k=10&changes=entered"}
//	GET    /api/v1/sinks        list every sink with live delivery stats
//	GET    /api/v1/sinks/<id>   one sink's stats
//	DELETE /api/v1/sinks/<id>   detach a sink now
//
// The query string binds exactly like /api/v1/watch (scope, predicates,
// k/limit bounds, delta filters; no pagination position). The endpoints
// exist only when the provider implements SinkProvider — the informer
// facade does.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"github.com/informing-observers/informer/internal/deliver"
)

// SinkProvider is the optional provider wiring of the push-delivery
// engine: a provider owning a deliver.Manager gets the /api/v1/sinks
// management endpoints mounted over it.
type SinkProvider interface {
	Sinks() *deliver.Manager
}

// maxSinkBody bounds a sink-creation request body.
const maxSinkBody = 64 << 10

// SinkRequest is the POST /api/v1/sinks body.
type SinkRequest struct {
	// Name optionally labels the sink in listings.
	Name string `json:"name"`
	// URL is the webhook endpoint delta envelopes are POSTed to.
	URL string `json:"url"`
	// Query is the standing query in /api/v1/watch query-string form,
	// delta filters included (e.g. "min_score=0.6&k=10&changes=entered").
	Query string `json:"query"`
}

// SinkEnvelope wraps one sink's stats; SinksEnvelope wraps the listing.
type SinkEnvelope struct {
	APIVersion string            `json:"api_version"`
	Sink       deliver.SinkStats `json:"sink"`
}

type SinksEnvelope struct {
	APIVersion string              `json:"api_version"`
	Count      int                 `json:"count"`
	Sinks      []deliver.SinkStats `json:"sinks"`
}

// handleSinks serves the /api/v1/sinks collection: create and list.
func (s *Server) handleSinks(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.createSink(w, r)
	case http.MethodGet, http.MethodHead:
		stats := s.sinks.Stats()
		if stats == nil {
			stats = []deliver.SinkStats{}
		}
		writeJSON(w, http.StatusOK, SinksEnvelope{APIVersion: "v1", Count: len(stats), Sinks: stats})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleSink serves one sink: stats and removal.
func (s *Server) handleSink(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/v1/sinks/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "no such sink")
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		st, ok := s.sinks.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no sink %q", id))
			return
		}
		writeJSON(w, http.StatusOK, SinkEnvelope{APIVersion: "v1", Sink: st})
	case http.MethodDelete:
		if !s.sinks.Remove(id) {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no sink %q", id))
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
	}
}

// createSink registers a webhook sink from a SinkRequest.
func (s *Server) createSink(w http.ResponseWriter, r *http.Request) {
	var req SinkRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSinkBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad sink request: %v", err))
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad sink url %q: need an absolute http(s) URL", req.URL))
		return
	}
	v, err := url.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad sink query: %v", err))
		return
	}
	q, err := BindQuery(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	filter, err := BindFilter(v)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id, err := s.sinks.Register(deliver.SinkConfig{
		Name:   req.Name,
		Sink:   &deliver.WebhookSink{URL: req.URL},
		Query:  q,
		Filter: filter,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, _ := s.sinks.Get(id)
	writeJSON(w, http.StatusCreated, SinkEnvelope{APIVersion: "v1", Sink: st})
}

// writeJSON answers one management envelope (no caching semantics: sink
// stats are live counters, not snapshot-derived state).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
