package correlate

import (
	"math/bits"
	"reflect"
	"sort"
	"testing"
)

// refUnion is the reference union: the smaller root wins.
func refUnion(parent []int32, a, b int32) {
	ra, rb := find(parent, a), find(parent, b)
	if ra > rb {
		ra, rb = rb, ra
	}
	parent[rb] = ra
}

// The hand-built bodies. Each is the base text with one word replaced;
// the replacements were chosen for the signature distances their pairs
// land at, which TestProbeMatchesPairwise re-checks before relying on.
const (
	probeBase    = "the harbour ferry runs late again because the night crew walked off before the storm warning came"
	probeDist6   = "square harbour ferry runs late again because the night crew walked off before the storm warning came"
	probeDist7   = "rain harbour ferry runs late again because the night crew walked off before the storm warning came"
	probeDist12  = "the wind ferry runs late again because the night crew walked off before the storm warning came"
	probeDist13  = "the storm ferry runs late again because the night crew walked off before the storm warning came"
	probeBand3A  = "night harbour ferry runs late again because the night crew walked off before the storm warning came"
	probeBand3B  = "the morning ferry runs late again because the night crew walked off before the storm warning came"
	probeNoMatch = "local bakery wins the regional bread prize for the third year running with its rye sourdough loaf"
)

// bandBitsSet returns the number of set bits of each band of x.
func bandBitsSet(x uint64) [numBands]int {
	var p [numBands]int
	for b := range p {
		p[b] = bits.OnesCount16(band(x, b))
	}
	return p
}

// TestProbeMatchesPairwise checks the banded index against an O(n²)
// reference on a small syndicating world plus hand-built bodies. In the
// reference, an earlier comment j is a candidate of comment i iff some
// band of sig_i ^ sig_j has at most one bit set, and the exact Hamming
// distance sets its tier. Each insertion's story-tier edges must come out
// exactly once each, in first-meeting order — band, then probe key
// (exact value first, then the flipped bit), then ID — and the dup
// verdicts and both tiers' roots must match.
func TestProbeMatchesPairwise(t *testing.T) {
	// The designed pairs land where the test needs them.
	pairs := []struct {
		name string
		a, b string
		ok   func(h int, p [numBands]int) bool
	}{
		{"verbatim copy meets in all four bands", probeBase, probeBase,
			func(h int, p [numBands]int) bool { return h == 0 }},
		{"distance 6 (dup tier)", probeBase, probeDist6,
			func(h int, p [numBands]int) bool { return h == 6 }},
		{"distance 7 (story tier), met by a flip in band 0 and again in band 2", probeBase, probeDist7,
			func(h int, p [numBands]int) bool { return h == 7 && p[0] == 1 && p[1] >= 2 && p[2] <= 1 }},
		{"distance 12 (story tier), a candidate", probeBase, probeDist12,
			func(h int, p [numBands]int) bool { return h == 12 && min(p[0], p[1], p[2], p[3]) <= 1 }},
		{"distance 13, a candidate but outside both tiers", probeBase, probeDist13,
			func(h int, p [numBands]int) bool { return h == 13 && min(p[0], p[1], p[2], p[3]) <= 1 }},
		{"meets only in band 3, after a two-bit band", probeBand3A, probeBand3B,
			func(h int, p [numBands]int) bool {
				return h <= StoryHamming && p[3] <= 1 && min(p[0], p[1], p[2]) == 2
			}},
	}
	for _, pr := range pairs {
		x := Simhash(pr.a) ^ Simhash(pr.b)
		if h, p := bits.OnesCount64(x), bandBitsSet(x); !pr.ok(h, p) {
			t.Fatalf("%s: the pair sits at distance %d with band bits %v", pr.name, h, p)
		}
	}

	w := syndicatedWorld(1206, 12)
	var coms []newComment
	for _, s := range w.Sources {
		for _, d := range s.Discussions {
			for _, c := range d.Comments {
				coms = append(coms, newComment{id: int32(c.ID), source: int32(s.ID), disc: int32(d.ID),
					posted: c.Posted.UnixNano(), body: c.Body})
			}
		}
	}
	sort.Slice(coms, func(i, j int) bool { return coms[i].id < coms[j].id })
	hand := []struct {
		source int32
		body   string
	}{
		{0, probeBase}, {0, probeBase}, {1, probeBase}, // self-quote, then a cross-source copy
		{2, probeDist6}, {3, probeDist7}, {4, probeDist12}, {5, probeDist13},
		{6, probeBand3A}, {7, probeBand3B}, {8, probeNoMatch}, {9, ""},
	}
	next := coms[len(coms)-1].id + 1
	for i, h := range hand {
		coms = append(coms, newComment{id: next + int32(i), source: h.source, posted: int64(i), body: h.body})
	}
	n := int(coms[len(coms)-1].id) + 1

	ix := NewIndex()
	ix.growSources(len(w.Sources))
	refDup, refStory := make([]int32, n), make([]int32, n)
	for i := range refDup {
		refDup[i], refStory[i] = int32(i), int32(i)
	}
	refVerdict := make([]bool, n)
	sigs := make([]uint64, n)
	var earlier []newComment // indexed comments already inserted
	type cand struct {
		band, key int
		id        int32
	}
	for _, c := range coms {
		before := len(ix.pending)
		ix.insert(c)
		got := append([]edge(nil), ix.pending[before:]...)

		var want []edge
		if c.body != "" {
			sigs[c.id] = Simhash(c.body)
			var story []cand
			for _, o := range earlier {
				x := sigs[c.id] ^ sigs[o.id]
				first := -1
				for b := 0; b < numBands; b++ {
					if bits.OnesCount16(band(x, b)) <= 1 {
						first = b
						break
					}
				}
				if first < 0 {
					continue
				}
				switch h := bits.OnesCount64(x); {
				case h <= DupHamming:
					if o.source != c.source {
						refVerdict[c.id] = true
					}
					refUnion(refDup, c.id, o.id)
					refUnion(refStory, c.id, o.id)
				case h <= StoryHamming:
					key := 0 // the exact band value is probed first
					if d := band(x, first); d != 0 {
						key = 1 + bits.TrailingZeros16(d)
					}
					story = append(story, cand{first, key, o.id})
				}
			}
			sort.Slice(story, func(i, j int) bool {
				a, b := story[i], story[j]
				if a.band != b.band {
					return a.band < b.band
				}
				if a.key != b.key {
					return a.key < b.key
				}
				return a.id < b.id
			})
			for _, s := range story {
				want = append(want, edge{c.id, s.id})
			}
			earlier = append(earlier, c)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("comment %d: story-tier edges %v, want %v", c.id, got, want)
		}
	}
	for _, e := range ix.pending {
		ix.storyUnion(e.a, e.b)
		refUnion(refStory, e.a, e.b)
	}

	for _, c := range coms {
		id := c.id
		if got, want := ix.entries[id].dup, refVerdict[id]; got != want {
			t.Errorf("comment %d: dup verdict %v, want %v", id, got, want)
		}
		if got, want := find(ix.dupParent, id), find(refDup, id); got != want {
			t.Errorf("comment %d: dup-tier root %d, want %d", id, got, want)
		}
		if got, want := find(ix.storyParent, id), find(refStory, id); got != want {
			t.Errorf("comment %d: story-tier root %d, want %d", id, got, want)
		}
	}
	// The hand-built tail lands as designed.
	h := func(i int) int32 { return next + int32(i) }
	for _, chk := range []struct {
		name string
		ok   bool
	}{
		{"a self-quote is not a duplicate", !ix.entries[h(1)].dup},
		{"a cross-source verbatim copy is", ix.entries[h(2)].dup},
		{"distance 6 is a duplicate", ix.entries[h(3)].dup && find(ix.dupParent, h(3)) == find(ix.dupParent, h(0))},
		{"distance 7 joins the story only", find(ix.dupParent, h(4)) == h(4) && find(ix.storyParent, h(4)) == find(ix.storyParent, h(0))},
		{"the band-3 pair shares a story", find(ix.storyParent, h(6)) == find(ix.storyParent, h(7))},
		{"unrelated text stays alone", find(ix.storyParent, h(9)) == h(9)},
		{"a text-less comment is not indexed", !ix.entries[h(10)].indexed},
	} {
		if !chk.ok {
			t.Errorf("hand-built tail: %s", chk.name)
		}
	}
}
