package apiserve

// /api/v1/stream: the Server-Sent Events transport of the standing-query
// subsystem (DESIGN.md section 9). Where /api/v1/watch answers one delta
// per request, a stream carries every tick's delta over one connection:
//
//	GET /api/v1/stream?since=3&min_score=0.6&k=10
//	Accept: text/event-stream
//
//	event: sync
//	id: 3
//	data: {"api_version":"v1","snapshot":3}
//
//	id: 4
//	data: {"api_version":"v1","since":3,"snapshot":4,"count":2,"changes":[...]}
//
// Each delta frame's data payload is byte-identical to the /api/v1/watch
// response body for the same since-token step, and the frame id is the
// round the delta ends at — so the standard SSE Last-Event-ID reconnect
// header doubles as the since token. An absent since starts the stream at
// the current round (the sync frame names it); a since behind the current
// round is first served one catch-up delta from the retention ring, and a
// since that aged out of the ring is 410 Gone before any frame — exactly
// the watch semantics. A subscriber that cannot keep up with the tick
// rate is dropped with a final "resync" frame (the in-stream 410): it
// reconnects with its Last-Event-ID and recovers through the same
// catch-up/410 path. Comment heartbeats keep idle connections alive.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/informing-observers/informer/internal/quality"
)

// defaultStreamHeartbeat keeps idle SSE connections alive through
// proxies; Server.StreamHeartbeat tunes it.
const defaultStreamHeartbeat = 15 * time.Second

// StreamSync is the data payload of the stream's opening "sync" frame:
// the round the delta stream starts from. A client that missed nothing
// (since == sync snapshot) needs no re-read.
type StreamSync struct {
	APIVersion string `json:"api_version"`
	Snapshot   int64  `json:"snapshot"`
}

// StreamResync is the data payload of a terminal "resync" frame — the
// in-stream equivalent of 410 Gone: the subscriber fell behind the tick
// rate and must re-sync from the current round.
type StreamResync struct {
	APIVersion string `json:"api_version"`
	Error      string `json:"error"`
}

// handleStream serves GET /api/v1/stream?[since=N]&<query...> as a
// Server-Sent Events feed of one standing query's per-tick window deltas;
// see the file comment for the wire protocol. The query binds exactly
// like /api/v1/watch.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	since, _, q, filter, err := bindWatchQuery(r.URL.Query(), false)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// A stream holds its connection across ticks: exempt it from the
	// host server's write timeout (no-op on writers without deadline
	// support), or the timeout would sever every stream mid-flight.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	// The SSE reconnect header doubles as the since token and wins over
	// the query parameter: a browser EventSource re-sends it unasked.
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if since, err = strconv.ParseInt(lei, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad Last-Event-ID %q", lei))
			return
		}
	}

	cur := s.observe().snap
	if since > cur.Version() {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("snapshot %d has not been published (current is %d)", since, cur.Version()))
		return
	}
	sub, err := s.subs.SubscribeWith(q, filter)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer sub.Close()

	// Resolve the catch-up delta — everything between the client's since
	// and the subscription's baseline — before any byte is written, so an
	// aged since can still answer a clean 410.
	baseline := since
	if baseline == 0 {
		baseline = sub.Since()
	}
	var catchup *WatchEnvelope
	if baseline < sub.Since() {
		old, ok := s.slot(baseline)
		if !ok {
			writeError(w, http.StatusGone, fmt.Sprintf("snapshot %d is no longer retained; re-sync from the current round", baseline))
			return
		}
		oldRes, err := old.snap.QuerySources(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		changes := filter.Apply(quality.DiffWindows(oldRes.Items, sub.Window()), oldRes.Items)
		env := NewWatchEnvelope(baseline, sub.Since(), ChangeItems(changes))
		catchup = &env
	}

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	h.Set("X-Informer-Snapshot", strconv.FormatInt(sub.Since(), 10))
	w.WriteHeader(http.StatusOK)

	syncBody, _ := json.Marshal(StreamSync{APIVersion: "v1", Snapshot: baseline})
	writeFrame(w, "sync", strconv.FormatInt(baseline, 10), syncBody)
	if catchup != nil {
		body, err := json.Marshal(*catchup)
		if err != nil {
			return
		}
		writeFrame(w, "", strconv.FormatInt(catchup.Snapshot, 10), body)
	}
	fl.Flush()

	heartbeat := s.StreamHeartbeat
	if heartbeat <= 0 {
		heartbeat = defaultStreamHeartbeat
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				// Dropped (slow consumer) or registry shutdown: terminal
				// resync frame, the in-stream 410.
				msg := "subscription dropped; re-sync from the current round"
				if err := sub.Err(); err != nil {
					msg = err.Error()
				}
				body, _ := json.Marshal(StreamResync{APIVersion: "v1", Error: msg})
				writeFrame(w, "resync", "", body)
				fl.Flush()
				return
			}
			if snap, isAPI := ev.Snap.(Snapshot); isAPI {
				s.remember(snap) // keep streamed rounds addressable for reconnect catch-up
			}
			if !filter.Zero() && len(ev.Changes) == 0 {
				// Nothing passed this stream's filter: the tick costs the
				// subscriber zero bytes. A reconnect recovers any skipped
				// ids through the filtered catch-up delta above.
				continue
			}
			body, err := json.Marshal(NewWatchEnvelope(ev.Since, ev.Snapshot, ChangeItems(ev.Changes)))
			if err != nil {
				return
			}
			writeFrame(w, "", strconv.FormatInt(ev.Snapshot, 10), body)
			fl.Flush()
		case <-ticker.C:
			io.WriteString(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeFrame writes one SSE frame. An empty event name is the default
// "message" type (EventSource onmessage); id, when set, becomes the
// client's Last-Event-ID.
func writeFrame(w io.Writer, event, id string, data []byte) {
	if event != "" {
		fmt.Fprintf(w, "event: %s\n", event)
	}
	if id != "" {
		fmt.Fprintf(w, "id: %s\n", id)
	}
	fmt.Fprintf(w, "data: %s\n\n", data)
}
