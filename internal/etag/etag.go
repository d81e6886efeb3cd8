// Package etag is the shared strong-ETag scheme of every HTTP surface:
// an FNV-1a content hash rendered as hex. internal/webserve (the
// crawlable world) and internal/apiserve (the /api/v1 quality API) must
// stamp identically-derived validators so conditional re-fetch behaves
// the same across the whole serving stack — sharing the implementation
// enforces that.
package etag

import (
	"strconv"
	"strings"
)

// Hash renders the FNV-1a hash of a response body as hex.
func Hash(p []byte) string {
	var h uint64 = 14695981039346656037
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return strconv.FormatUint(h, 16)
}

// Match reports whether an If-None-Match header value matches the current
// representation's entity-tag (RFC 9110 §13.1.2): "*" matches any
// representation, otherwise the header is a comma-separated list of
// entity-tags compared weakly — W/"x" matches "x" and W/"x", because only
// the opaque quoted part is compared. A malformed list element ends the
// scan without a match for it or anything after it.
func Match(header, tag string) bool {
	want := strings.TrimPrefix(tag, "W/")
	for {
		header = strings.TrimLeft(header, " \t,")
		if header == "" {
			return false
		}
		if header[0] == '*' {
			return true
		}
		header = strings.TrimPrefix(header, "W/")
		if header == "" || header[0] != '"' {
			return false
		}
		end := strings.IndexByte(header[1:], '"')
		if end < 0 {
			return false
		}
		if header[:end+2] == want {
			return true
		}
		header = header[end+2:]
	}
}
