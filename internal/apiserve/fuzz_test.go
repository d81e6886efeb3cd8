package apiserve

// Native Go fuzz targets hardening the two parsing surfaces a remote
// client controls: the query-string binding and the opaque cursor token.
// CI runs each for ~10s (-fuzz) on top of the checked-in seed corpus
// (testdata/fuzz/...), and the seeds run as plain unit cases in every
// ordinary `go test` invocation, so the harness cannot rot.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"net/url"
	"strings"
	"testing"

	"github.com/informing-observers/informer/internal/correlate"
	"github.com/informing-observers/informer/internal/quality"
)

// FuzzBindQuery pins three properties for arbitrary query strings:
// binding never panics, a string carrying the retired offset parameter
// never binds, and every successfully bound query survives the
// bind → canonicalize → re-bind round-trip — EncodeQuery emits a canonical
// form that BindQuery accepts and that canonicalizes to the same key, so
// the per-snapshot cache can never split or alias a query by spelling.
func FuzzBindQuery(f *testing.F) {
	f.Add("min_score=0.55&k=10")
	f.Add("category=place,pulse&kind=blog&sort=dim.time&fields=scores&limit=7")
	f.Add("id=5&id=3&id=5&min_dim.time=0.5&min_att.relevance=0.4&limit=4")
	f.Add("min_measure.src.time.liveliness=0.25&spam_resistance=0.3&sort=att.traffic")
	f.Add("cursor=" + EncodeCursor(quality.Cursor{Key: 0.731, ID: 42, Pos: 11}, 1) + "&limit=5&k=20")
	f.Add("cursor=" + EncodeCursor(quality.Cursor{Key: 0.5, ID: 7, Pos: 3}, 16) + "&limit=5")
	f.Add("cursor=AAAA&limit=5")
	f.Add("min_score=NaN&k=-3&limit=-1")
	f.Add("min_score=0x1p-2&min_dim.time=Inf")
	f.Add("%zz=&&&=;;;")
	f.Add("sort=dim.&min_dim.=1&min_measure.=0.1")
	f.Add("k=5&offset=3&limit=4")
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := BindQuery(v)
		if _, offset := v["offset"]; offset && err == nil {
			t.Fatalf("%q carries the retired offset parameter but bound", raw)
		}
		if err != nil {
			return // cleanly rejected input
		}
		enc := EncodeQuery(q)
		q2, err := BindQuery(enc)
		if err != nil {
			t.Fatalf("canonical form of %q failed to re-bind: %v (encoded %q)", raw, err, enc.Encode())
		}
		if k1, k2 := q.CanonicalKey(), q2.CanonicalKey(); k1 != k2 {
			t.Fatalf("round-trip changed the canonical key for %q:\n first  %s\n second %s", raw, k1, k2)
		}
	})
}

// FuzzCursor pins the v2 cursor token contract for arbitrary strings:
// decode never panics, rejections are clean errors (including v1 tokens
// from before the shard tag), and every accepted token is the canonical
// encoding of an in-domain (cursor, shard count) pair — decode → encode
// is the identity on the accepted set, with the shard tag round-tripping
// exactly.
func FuzzCursor(f *testing.F) {
	f.Add(EncodeCursor(quality.Cursor{}, 1))
	f.Add(EncodeCursor(quality.Cursor{Key: 0.7313, ID: 42, Pos: 11}, 1))
	f.Add(EncodeCursor(quality.Cursor{Key: 0.7313, ID: 42, Pos: 11}, 2))
	f.Add(EncodeCursor(quality.Cursor{Key: -0.25, ID: 3, Pos: 0}, 7))
	f.Add(EncodeCursor(quality.Cursor{Key: math.Inf(-1), ID: 1 << 40, Pos: 999999}, 16))
	f.Add("")
	f.Add("not-a-cursor")
	f.Add(strings.Repeat("A", 200))
	f.Add("AQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA") // v1-length token: stale layout
	f.Add(v1Token(quality.Cursor{Key: 0.5, ID: 9, Pos: 2}))
	f.Fuzz(func(t *testing.T, s string) {
		c, shards, err := DecodeCursor(s)
		if err != nil {
			return // cleanly rejected token
		}
		if math.IsNaN(c.Key) || c.ID < 0 || c.Pos < 0 || shards < 1 {
			t.Fatalf("accepted cursor out of domain: %+v shards=%d (from %q)", c, shards, s)
		}
		if s2 := EncodeCursor(c, shards); s2 != s {
			t.Fatalf("accepted token is not canonical: %q decodes to %+v shards=%d which encodes to %q", s, c, shards, s2)
		}
	})
}

// v1Token renders a cursor in the retired version-1 layout (no shard
// tag) with a valid checksum — the exact bytes an old client might still
// hold. DecodeCursor must reject it as an unknown version.
func v1Token(c quality.Cursor) string {
	buf := make([]byte, 1+8+8+8+4)
	buf[0] = 1
	binary.BigEndian.PutUint64(buf[1:], math.Float64bits(c.Key))
	binary.BigEndian.PutUint64(buf[9:], uint64(c.ID))
	binary.BigEndian.PutUint64(buf[17:], uint64(c.Pos))
	h := fnv.New32a()
	h.Write(buf[:25])
	binary.BigEndian.PutUint32(buf[25:], h.Sum32())
	return cursorEncoding.EncodeToString(buf)
}

// TestCursorV1Rejected pins the retirement of the untagged v1 layout: a
// well-formed, correctly checksummed v1 token is refused outright (clients
// restart their walks), never misparsed into a v2 cursor.
func TestCursorV1Rejected(t *testing.T) {
	tok := v1Token(quality.Cursor{Key: 0.731, ID: 42, Pos: 11})
	if _, _, err := DecodeCursor(tok); err == nil {
		t.Fatalf("v1 token %q was accepted", tok)
	}
}

// FuzzBindStories pins the stories binding for arbitrary query strings:
// it never panics, and every accepted query is in-domain — a positive
// page size, a min_sources of at least 2, and a cursor (when present)
// whose decoded form re-encodes to the exact token that was accepted.
func FuzzBindStories(f *testing.F) {
	f.Add("k=10&min_sources=2")
	f.Add("k=3")
	f.Add("cursor=" + EncodeStoryCursor(correlate.StoryCursor{LatestNano: 1_600_000_000_000_000_000, ID: 42}) + "&k=5")
	f.Add("cursor=" + EncodeStoryCursor(correlate.StoryCursor{LatestNano: -7, ID: 0}))
	f.Add("k=0")
	f.Add("k=-3&min_sources=1")
	f.Add("min_sources=999&k=2")
	f.Add("cursor=AAAA")
	f.Add("%zz=&&&=;;;")
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := BindStoryQuery(v)
		if err != nil {
			return // cleanly rejected input
		}
		if q.Limit <= 0 || q.MinSources < 2 {
			t.Fatalf("accepted out-of-domain stories query %+v from %q", q, raw)
		}
		if q.After != nil {
			if tok := EncodeStoryCursor(*q.After); tok != v.Get("cursor") {
				t.Fatalf("accepted cursor %q is not canonical (re-encodes to %q)", v.Get("cursor"), tok)
			}
		}
	})
}

// FuzzStoryCursor pins the story token contract for arbitrary strings:
// decode never panics, rejections are clean errors — including every
// assessment-cursor token, whose layout length differs — and decode →
// encode is the identity on the accepted set.
func FuzzStoryCursor(f *testing.F) {
	f.Add(EncodeStoryCursor(correlate.StoryCursor{}))
	f.Add(EncodeStoryCursor(correlate.StoryCursor{LatestNano: 1_600_000_000_000_000_000, ID: 42}))
	f.Add(EncodeStoryCursor(correlate.StoryCursor{LatestNano: -1, ID: 7}))
	f.Add(EncodeCursor(quality.Cursor{Key: 0.7, ID: 3, Pos: 1}, 2)) // assessment token: wrong family
	f.Add("")
	f.Add("not-a-cursor")
	f.Add(strings.Repeat("A", 28))
	f.Fuzz(func(t *testing.T, s string) {
		c, err := DecodeStoryCursor(s)
		if err != nil {
			return // cleanly rejected token
		}
		if c.ID < 0 {
			t.Fatalf("accepted story cursor with negative ID from %q", s)
		}
		if s2 := EncodeStoryCursor(c); s2 != s {
			t.Fatalf("accepted token is not canonical: %q decodes to %+v which encodes to %q", s, c, s2)
		}
	})
}

// TestCursorFamiliesReject pins that the two token families can never be
// confused: an assessment cursor is refused by the story decoder and vice
// versa (distinct payload lengths make this structural, not incidental).
func TestCursorFamiliesReject(t *testing.T) {
	assess := EncodeCursor(quality.Cursor{Key: 0.731, ID: 42, Pos: 11}, 7)
	if _, err := DecodeStoryCursor(assess); err == nil {
		t.Fatal("story decoder accepted an assessment token")
	}
	story := EncodeStoryCursor(correlate.StoryCursor{LatestNano: 99, ID: 3})
	if _, _, err := DecodeCursor(story); err == nil {
		t.Fatal("assessment decoder accepted a story token")
	}
}
