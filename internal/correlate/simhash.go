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

import (
	"math/bits"
	"strings"
)

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

// fnv64a hashes one shingle (FNV-1a, inlined to avoid per-shingle
// allocations in the hot Build/Fold path).
func fnv64a(parts []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i, p := range parts {
		if i > 0 {
			h ^= ' '
			h *= prime64
		}
		for j := 0; j < len(p); j++ {
			h ^= uint64(p[j])
			h *= prime64
		}
	}
	return h
}

// tokenize lowercases and splits text into word tokens (letters and
// digits; everything else separates).
func tokenize(text string) []string {
	words := make([]string, 0, 32)
	start := -1
	flush := func(end int) {
		if start >= 0 {
			words = append(words, strings.ToLower(text[start:end]))
			start = -1
		}
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if alnum {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))
	return words
}

// Simhash computes the 64-bit simhash of a text over word shingles of
// shingleSize. Texts shorter than one shingle hash as a single shingle of
// whatever words they have; the empty text hashes to 0.
func Simhash(text string) uint64 {
	words := tokenize(text)
	if len(words) == 0 {
		return 0
	}
	var counts [64]int32
	accumulate := func(h uint64) {
		// +1 for a set bit, -1 for a clear one, without a branch per bit.
		for b := 0; b < 64; b++ {
			counts[b] += int32(h>>uint(b)&1)*2 - 1
		}
	}
	if len(words) < shingleSize {
		accumulate(fnv64a(words))
	} else {
		for i := 0; i+shingleSize <= len(words); i++ {
			accumulate(fnv64a(words[i : i+shingleSize]))
		}
	}
	var sig uint64
	for b := 0; b < 64; b++ {
		if counts[b] > 0 {
			sig |= 1 << uint(b)
		}
	}
	return sig
}

// hamming counts differing bits between two signatures.
func hamming(a, b uint64) int { return bits.OnesCount64(a ^ b) }

// band extracts the i-th 16-bit band of a signature.
func band(sig uint64, i int) uint16 {
	return uint16(sig >> (uint(i) * bandBits))
}
