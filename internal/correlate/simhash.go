// Package correlate is the correlation engine: near-duplicate detection
// over comment text and incremental same-story clustering (DESIGN.md
// section 14). It answers the observer-facing gap the paper's
// source-in-isolation ranking leaves open — "seven sources, one story" —
// with the two-stage shape of a production dedup pipeline:
//
//  1. a cheap per-item near-duplicate index: a 64-bit simhash over
//     shingled comment text, bucketed by band so candidate lookup probes
//     O(1) buckets instead of the corpus;
//  2. incremental micro-clusters: a union-find over the near-dup graph at
//     the tight duplicate tier, plus a batch merge pass at the looser
//     story tier folded in at every publish.
//
// The index is delta-aware: Corpus.Advance / DrainTick hand it only the
// tick's new comments (Fold), and the repaired index, clusters and
// per-source originality counters are bit-identical to a from-scratch
// Build over the same world — the property the randomized equivalence
// suite pins. Everything here is deterministic: no clocks, no randomness,
// and no map iteration order ever escapes into cluster or story identity
// (story IDs are minimum member comment IDs, invariant under fold order).
//
//informer:deterministic
package correlate

// Simhash parameters. 64-bit signatures are cut into 4 bands of 16 bits
// and candidate lookup is multi-probe: each band's flat bucket table is
// read at the exact band value and at every single-bit variation (4 x 17
// = 68 array reads), while a signature registers only under its exact
// band values. A candidate is thus met in every band where it differs
// from the probe in at most one bit, and is verified at the first.
// By pigeonhole, two signatures within Hamming distance 7 have some band
// differing in at most one bit, so the probe set finds every candidate
// at the duplicate tier (<= 6) with guaranteed recall. The looser story
// tier (<= 12) is evaluated over the same candidates; a pair whose every
// band differs in two or more bits is invisible to it, which keeps
// lookup O(1) at the cost of an approximate — but deterministic —
// recall at the story tier. The tiers correspond to ~0.91 and ~0.81
// bitwise signature agreement (the "~0.90 dup / ~0.82 story" similarity
// tiers): on this generator's comment lengths (~15 words), a verbatim
// copy sits at distance 0 and an RT-style lead-prefixed copy
// perturbs roughly 4-10 bits, straddling the two tiers.
const (
	shingleSize = 3 // words per shingle
	numBands    = 4
	bandBits    = 64 / numBands

	// DupHamming is the near-duplicate tier: at most this many differing
	// signature bits makes two comments duplicates of one another.
	// Recall is guaranteed (DupHamming < numBands + probeBits*numBands).
	DupHamming = 6
	// StoryHamming is the looser same-story tier (approximate recall).
	StoryHamming = 12
)

// span is one word of a text: the byte range [start, end).
type span struct{ start, end int }

// Simhash computes the 64-bit simhash of a text over word shingles of
// shingleSize. Words are maximal runs of ASCII letters and digits
// (everything else separates) and compare case-insensitively. Texts
// shorter than one shingle hash as a single shingle of whatever words
// they have; the empty text hashes to 0.
//
// Each shingle's hash is FNV-1a over its words, lowercased, joined by
// single spaces. Simhash reads the words in place: their spans sit in a
// stack array that reaches the heap only past 64 words, and the hash
// lowercases each byte as it reads it, so a comment costs no allocation.
func Simhash(text string) uint64 {
	var buf [64]span
	words := buf[:0]
	start := -1
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			words = append(words, span{start, i})
			start = -1
		}
	}
	if start >= 0 {
		words = append(words, span{start, len(text)})
	}
	if len(words) == 0 {
		return 0
	}
	// One shingle per window of shingleSize words, or a single shingle
	// of every word when there are fewer.
	shingles, width := len(words)-shingleSize+1, shingleSize
	if shingles < 1 {
		shingles, width = 1, len(words)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
		lowBytes = 0x0101010101010101
	)
	// The vote counts the shingles that set each bit, eight bits per
	// add: byte k of lanes[j] counts the shingles with bit 8k+j set. A
	// byte holds 255 votes, so the lanes drain into ones every 255
	// shingles.
	var lanes [8]uint64
	var ones [64]int32
	drain := func() {
		for j, l := range lanes {
			for k := 0; k < 8; k++ {
				ones[8*k+j] += int32(l >> (8 * k) & 0xff)
			}
		}
		lanes = [8]uint64{}
	}
	for i := 0; i < shingles; i++ {
		h := uint64(offset64)
		for k, w := range words[i : i+width] {
			if k > 0 {
				h ^= ' '
				h *= prime64
			}
			for j := w.start; j < w.end; j++ {
				c := text[j]
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				h ^= uint64(c)
				h *= prime64
			}
		}
		for j := range lanes {
			lanes[j] += h >> j & lowBytes
		}
		if i%255 == 254 {
			drain()
		}
	}
	drain()
	// A bit is set when more shingles set it than clear it.
	var sig uint64
	for b, n := range ones {
		if 2*int(n) > shingles {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// band extracts the i-th 16-bit band of a signature.
func band(sig uint64, i int) uint16 {
	return uint16(sig >> (uint(i) * bandBits))
}
