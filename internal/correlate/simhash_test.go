package correlate

import (
	"math/bits"
	"strings"
	"testing"
)

// hamming counts differing bits between two signatures.
func hamming(a, b uint64) int { return bits.OnesCount64(a ^ b) }

// tokenize lowercases and splits text into word tokens (letters and
// digits; everything else separates): the reference word split.
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

// fnv64a is the reference shingle hash: FNV-1a over the words joined by
// single spaces.
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

// refSimhash is the reference signature: tokenize, hash each shingle
// with fnv64a, and take the bitwise majority vote.
func refSimhash(text string) uint64 {
	words := tokenize(text)
	if len(words) == 0 {
		return 0
	}
	var counts [64]int
	vote := func(h uint64) {
		for b := 0; b < 64; b++ {
			if h>>uint(b)&1 == 1 {
				counts[b]++
			} else {
				counts[b]--
			}
		}
	}
	if len(words) < shingleSize {
		vote(fnv64a(words))
	} else {
		for i := 0; i+shingleSize <= len(words); i++ {
			vote(fnv64a(words[i : i+shingleSize]))
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

// FuzzSimhash checks that Simhash, which reads words in place and
// lowercases while it hashes, signs every input exactly as the reference
// path does. The checked-in seeds cover mixed case and digits,
// punctuation only, non-ASCII UTF-8, fewer than three words and more
// than the 64 words Simhash keeps on the stack.
func FuzzSimhash(f *testing.F) {
	f.Add("The cathedral square fills, with tourists — every morning!")
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Simhash(text), refSimhash(text); got != want {
			t.Fatalf("Simhash(%q) = %#x, the reference path gives %#x", text, got, want)
		}
	})
}

// TestSimhashAllocates pins that signing a comment allocates nothing, up
// to 64 words.
func TestSimhashAllocates(t *testing.T) {
	text := strings.Repeat("Harbour ferry 42 late; ", 16) // 64 words
	if n := testing.AllocsPerRun(16, func() { Simhash(text) }); n != 0 {
		t.Fatalf("Simhash of a 64-word text allocates %.0f times, want 0", n)
	}
}
