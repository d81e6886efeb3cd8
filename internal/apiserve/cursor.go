package apiserve

// The wire form of quality.Cursor: an opaque, URL-safe token clients echo
// verbatim as ?cursor=. The payload is versioned, fixed-length and
// checksummed, so arbitrary bytes are rejected cleanly (never a panic,
// never a silently misparsed cursor) and every accepted token is the
// canonical encoding of its cursor — DecodeCursor and EncodeCursor are
// exact inverses on the accepted set, a property FuzzCursor pins.
//
// Version 2 tags the token with the shard count of the engine that minted
// it. The resume position itself is shard-agnostic — (key, ID, Pos) means
// the same thing under any sharding, because the scatter-gather merge is
// bit-identical at every shard count — but a token minted under one
// shard layout and replayed against another is evidence the client is
// resuming a walk across a corpus rebuild, so the serving layer fails it
// closed with 410 Gone instead of silently continuing (the same contract
// as an aged-out ?snapshot= pin). Version 1 tokens (no shard tag) are
// rejected as an unknown version.

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/informing-observers/informer/internal/quality"
)

// cursorVersion tags the payload layout; bump it when the layout changes
// so stale clients get a clean rejection instead of a misparse.
const cursorVersion = 2

// cursorLen is the fixed payload length: version byte, shard count, key
// bits, ID, Pos, FNV-1a checksum.
const cursorLen = 1 + 4 + 8 + 8 + 8 + 4

// cursorSummed is the checksummed prefix: everything but the trailing
// FNV-1a word.
const cursorSummed = cursorLen - 4

// cursorEncoding rejects non-canonical base64 (strict mode catches
// non-zero trailing padding bits), keeping the decode→encode round-trip
// exact.
var cursorEncoding = base64.RawURLEncoding.Strict()

// EncodeCursor renders a resume cursor as its opaque wire token, tagged
// with the shard count of the snapshot that minted it (values below 1
// encode as 1, the default single shard).
func EncodeCursor(c quality.Cursor, shards int) string {
	if shards < 1 {
		shards = 1
	}
	buf := make([]byte, cursorLen)
	buf[0] = cursorVersion
	binary.BigEndian.PutUint32(buf[1:], uint32(shards))
	binary.BigEndian.PutUint64(buf[5:], math.Float64bits(c.Key))
	binary.BigEndian.PutUint64(buf[13:], uint64(c.ID))
	binary.BigEndian.PutUint64(buf[21:], uint64(c.Pos))
	h := fnv.New32a()
	h.Write(buf[:cursorSummed])
	binary.BigEndian.PutUint32(buf[cursorSummed:], h.Sum32())
	return cursorEncoding.EncodeToString(buf)
}

// DecodeCursor parses an opaque wire token back into a resume cursor plus
// the shard count it was minted under, rejecting anything that is not a
// canonical, checksummed, in-domain encoding: wrong length, bad base64,
// unknown version (including v1 tokens from before the shard tag),
// checksum mismatch, NaN key, a zero shard count, or a negative ID/Pos.
// Whether the shard count still matches the serving snapshot is the
// caller's check (410 semantics, see checkCursorShards).
func DecodeCursor(s string) (quality.Cursor, int, error) {
	var c quality.Cursor
	buf, err := cursorEncoding.DecodeString(s)
	if err != nil {
		return c, 0, fmt.Errorf("bad cursor: not base64url")
	}
	if len(buf) != cursorLen {
		return c, 0, fmt.Errorf("bad cursor: wrong length")
	}
	if buf[0] != cursorVersion {
		return c, 0, fmt.Errorf("bad cursor: unknown version %d", buf[0])
	}
	h := fnv.New32a()
	h.Write(buf[:cursorSummed])
	if binary.BigEndian.Uint32(buf[cursorSummed:]) != h.Sum32() {
		return c, 0, fmt.Errorf("bad cursor: checksum mismatch")
	}
	shards := binary.BigEndian.Uint32(buf[1:])
	key := math.Float64frombits(binary.BigEndian.Uint64(buf[5:]))
	id := binary.BigEndian.Uint64(buf[13:])
	pos := binary.BigEndian.Uint64(buf[21:])
	if shards == 0 || math.IsNaN(key) || id > math.MaxInt || pos > math.MaxInt {
		return c, 0, fmt.Errorf("bad cursor: out of domain")
	}
	c.Key, c.ID, c.Pos = key, int(id), int(pos)
	return c, int(shards), nil
}
