package apiserve

// Unit contracts of conditional and compressed serving: gzip negotiation
// with representation-specific ETags, and Last-Modified/If-Modified-Since
// derived from the snapshot tick timeline.

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"testing"
	"time"
)

func TestGzipNegotiation(t *testing.T) {
	// A window wide enough that the envelope clears gzipMinSize.
	ids := make([]int, 24)
	for i := range ids {
		ids[i] = i
	}
	p := newWatchProvider(watchWindow(1, ids...))
	s := New(p)
	defer s.Close()

	plain := get(t, s, "/api/v1/sources?k=30", nil)
	if plain.Code != http.StatusOK || plain.Header().Get("Content-Encoding") != "" {
		t.Fatalf("identity response: status %d, encoding %q", plain.Code, plain.Header().Get("Content-Encoding"))
	}
	if len(plain.Body.Bytes()) < gzipMinSize {
		t.Fatalf("test window too small to exercise gzip (%d bytes)", len(plain.Body.Bytes()))
	}
	if vary := plain.Header().Get("Vary"); vary != "Accept-Encoding" {
		t.Fatalf("Vary %q", vary)
	}

	gzRec := get(t, s, "/api/v1/sources?k=30", map[string]string{"Accept-Encoding": "gzip, deflate"})
	if gzRec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip not negotiated: encoding %q", gzRec.Header().Get("Content-Encoding"))
	}
	if len(gzRec.Body.Bytes()) >= len(plain.Body.Bytes()) {
		t.Fatalf("gzip body (%d) not smaller than identity (%d)", len(gzRec.Body.Bytes()), len(plain.Body.Bytes()))
	}
	zr, err := gzip.NewReader(bytes.NewReader(gzRec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, plain.Body.Bytes()) {
		t.Fatal("gzip representation decodes to different bytes than identity")
	}

	// Representation-specific strong ETags: the variants never share a
	// validator, and each honours If-None-Match for its own clients.
	plainTag, gzTag := plain.Header().Get("ETag"), gzRec.Header().Get("ETag")
	if plainTag == "" || gzTag == "" || plainTag == gzTag {
		t.Fatalf("variant tags %q / %q must differ", plainTag, gzTag)
	}
	if rec := get(t, s, "/api/v1/sources?k=30", map[string]string{"Accept-Encoding": "gzip", "If-None-Match": gzTag}); rec.Code != http.StatusNotModified {
		t.Fatalf("gzip INM: status %d, want 304", rec.Code)
	}
	if rec := get(t, s, "/api/v1/sources?k=30", map[string]string{"If-None-Match": plainTag}); rec.Code != http.StatusNotModified {
		t.Fatalf("identity INM: status %d, want 304", rec.Code)
	}
	// A validator from the other representation must not shortcut.
	if rec := get(t, s, "/api/v1/sources?k=30", map[string]string{"If-None-Match": gzTag}); rec.Code != http.StatusOK {
		t.Fatalf("cross-variant INM: status %d, want 200", rec.Code)
	}

	// Tiny responses are not worth the framing: identity even when the
	// client accepts gzip; an explicit q=0 opts out entirely.
	small := New(newWatchProvider(watchWindow(1, 1, 2)))
	defer small.Close()
	if rec := get(t, small, "/api/v1/sources?k=2", map[string]string{"Accept-Encoding": "gzip"}); rec.Header().Get("Content-Encoding") != "" {
		t.Fatal("sub-threshold body must not be compressed")
	}
	for _, refusal := range []string{"gzip;q=0", "gzip;q=0.0", "gzip; q=0.000", "identity"} {
		if rec := get(t, s, "/api/v1/sources?k=30", map[string]string{"Accept-Encoding": refusal}); rec.Header().Get("Content-Encoding") != "" {
			t.Fatalf("Accept-Encoding %q must not be compressed", refusal)
		}
	}
	if rec := get(t, s, "/api/v1/sources?k=30", map[string]string{"Accept-Encoding": "br, gzip;q=0.3"}); rec.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("a positive qvalue must still negotiate gzip")
	}
}

func TestLastModifiedConditional(t *testing.T) {
	p := newWatchProvider(watchWindow(1, 1, 2, 3))
	s := New(p)
	defer s.Close()

	rec := get(t, s, "/api/v1/sources?k=10", nil)
	lm := rec.Header().Get("Last-Modified")
	if lm == "" {
		t.Fatal("no Last-Modified header")
	}
	stamp, err := http.ParseTime(lm)
	if err != nil {
		t.Fatalf("bad Last-Modified %q: %v", lm, err)
	}
	if d := time.Since(stamp); d < 0 || d > time.Minute {
		t.Fatalf("Last-Modified %v is not the round's observation instant", stamp)
	}

	// Not modified since the stamp: 304. Stale validator: full response.
	if rec := get(t, s, "/api/v1/sources?k=10", map[string]string{"If-Modified-Since": lm}); rec.Code != http.StatusNotModified {
		t.Fatalf("IMS at stamp: status %d, want 304", rec.Code)
	}
	past := stamp.Add(-time.Hour).UTC().Format(http.TimeFormat)
	if rec := get(t, s, "/api/v1/sources?k=10", map[string]string{"If-Modified-Since": past}); rec.Code != http.StatusOK {
		t.Fatalf("stale IMS: status %d, want 200", rec.Code)
	}
	// If-None-Match wins over If-Modified-Since (RFC 9110): a mismatched
	// tag forces a full response however fresh the date is.
	if rec := get(t, s, "/api/v1/sources?k=10", map[string]string{"If-None-Match": `"nope"`, "If-Modified-Since": lm}); rec.Code != http.StatusOK {
		t.Fatalf("INM precedence: status %d, want 200", rec.Code)
	}
	// Garbage dates are ignored, not errors.
	if rec := get(t, s, "/api/v1/sources?k=10", map[string]string{"If-Modified-Since": "yesterday-ish"}); rec.Code != http.StatusOK {
		t.Fatalf("bad IMS: status %d, want 200", rec.Code)
	}

	// A new round moves the timeline: the old validator stops answering
	// 304 as soon as its round is succeeded by one observed later.
	p.swap(watchWindow(2, 3, 2, 1))
	rec2 := get(t, s, "/api/v1/sources?k=10", nil)
	if rec2.Header().Get("Last-Modified") == "" {
		t.Fatal("advanced round lost its Last-Modified")
	}
	if v := rec2.Header().Get("X-Informer-Snapshot"); v != "2" {
		t.Fatalf("advanced round version %s", v)
	}
}

// TestIfNoneMatchForms pins RFC 9110 §13.1.2 on both representations: a
// list, a weak tag and "*" answer 304; the other representation's tag,
// weak or strong, does not.
func TestIfNoneMatchForms(t *testing.T) {
	ids := make([]int, 24)
	for i := range ids {
		ids[i] = i
	}
	s := New(newWatchProvider(watchWindow(1, ids...)))
	defer s.Close()
	const target = "/api/v1/sources?k=30"
	plainTag := get(t, s, target, nil).Header().Get("ETag")
	gzTag := get(t, s, target, map[string]string{"Accept-Encoding": "gzip"}).Header().Get("ETag")
	for _, c := range []struct{ enc, tag, other string }{{"", plainTag, gzTag}, {"gzip", gzTag, plainTag}} {
		for inm, want := range map[string]int{
			c.tag:                http.StatusNotModified,
			`"nope", ` + c.tag:   http.StatusNotModified,
			c.tag + `,"nope"`:    http.StatusNotModified,
			"W/" + c.tag:         http.StatusNotModified,
			"*":                  http.StatusNotModified,
			c.other:              http.StatusOK,
			"W/" + c.other:       http.StatusOK,
			`"nope", ` + c.other: http.StatusOK,
			`W/"nope"`:           http.StatusOK,
		} {
			rec := get(t, s, target, map[string]string{"Accept-Encoding": c.enc, "If-None-Match": inm})
			if rec.Code != want {
				t.Errorf("Accept-Encoding %q, If-None-Match %s: status %d, want %d", c.enc, inm, rec.Code, want)
			}
		}
	}
}
