package informer

// The correlation engine's facade-level acceptance pin: a corpus whose
// dedup index and story clusters were maintained incrementally — through
// a randomized mix of Advance, AdvanceSameDay and per-source Ingest +
// DrainTick — is byte-identical to one rebuilt from scratch over the
// final world, at shard counts {1, 7} and under the default FromWorld
// construction path. "Byte-identical" covers the full story sets (IDs,
// members, representatives, freshness) and the src.originality measure
// column all the way through assessment.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"testing"

	"github.com/informing-observers/informer/internal/webgen"
)

// storySnapshot renders a corpus' stories as comparable data.
func storySnapshot(c *Corpus) []Story {
	ss := c.Stories()
	out := make([]Story, 0, ss.Len())
	for _, st := range ss.All() {
		out = append(out, *st)
	}
	return out
}

// originalityColumn extracts the src.originality raw value per source ID
// (sources where the measure is undefined are absent).
func originalityColumn(c *Corpus) map[int]float64 {
	out := map[int]float64{}
	for _, r := range c.SourceRecords() {
		if a, ok := c.AssessSource(r.ID); ok {
			if v, defined := a.Raw["src.originality"]; defined {
				out[r.ID] = v
			}
		}
	}
	return out
}

func TestCorrelationIncrementalEquivalenceRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized equivalence suite skipped in -short mode")
	}
	for _, seed := range []int64{41, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			world := webgen.Generate(webgen.Config{
				Seed: seed, NumSources: 70, CommentText: true, SyndicationRate: 0.2,
			})
			// The incrementally maintained corpora: the default FromWorld
			// construction, the explicit one-shard path and a
			// boundary-rich prime.
			live := map[string]*Corpus{
				"unsharded": FromWorld(world, DomainOfInterest{}, seed),
				"shards=1":  FromWorldSharded(world, DomainOfInterest{}, seed, 1),
				"shards=7":  FromWorldSharded(world, DomainOfInterest{}, seed, 7),
			}
			rng := rand.New(rand.NewSource(seed * 997))
			for tick := 0; tick < 8; tick++ {
				op := rng.Intn(3)
				opSeed := rng.Int63n(1 << 30)
				days := 1 + rng.Intn(2)
				nIngest := 1 + rng.Intn(4)
				ingestIDs := make([]int, nIngest)
				for i := range ingestIDs {
					ingestIDs[i] = rng.Intn(len(world.Sources))
				}
				for _, c := range live {
					switch op {
					case 0:
						c.Advance(days, opSeed)
					case 1:
						c.AdvanceSameDay(opSeed, nil)
					default:
						for _, id := range ingestIDs {
							c.Ingest(id, opSeed)
						}
						c.DrainTick()
					}
				}

				// Every live corpus agrees with a fresh rebuild of its
				// own current world, and all live corpora agree with
				// each other.
				var wantStories []Story
				var wantOrig map[int]float64
				first := true
				for name, c := range live {
					rebuilt := FromWorld(c.World(), DomainOfInterest{}, seed)
					gotStories, rebuiltStories := storySnapshot(c), storySnapshot(rebuilt)
					if !reflect.DeepEqual(gotStories, rebuiltStories) {
						t.Fatalf("tick %d (%s): incremental stories diverge from rebuild (%d vs %d)", tick, name, len(gotStories), len(rebuiltStories))
					}
					gotOrig, rebuiltOrig := originalityColumn(c), originalityColumn(rebuilt)
					if !reflect.DeepEqual(gotOrig, rebuiltOrig) {
						t.Fatalf("tick %d (%s): incremental src.originality diverges from rebuild", tick, name)
					}
					if first {
						wantStories, wantOrig, first = gotStories, gotOrig, false
						continue
					}
					if !reflect.DeepEqual(gotStories, wantStories) {
						t.Fatalf("tick %d (%s): stories diverge across engines", tick, name)
					}
					if !reflect.DeepEqual(gotOrig, wantOrig) {
						t.Fatalf("tick %d (%s): src.originality diverges across engines", tick, name)
					}
				}
			}
		})
	}
}

// TestStoriesEndpointServesClusters is the API-level smoke pin: the
// /api/v1/stories listing is non-empty over a syndicating corpus, pages
// by cursor without overlap or loss, and every item carries its members
// ranked by quality score.
func TestStoriesEndpointServesClusters(t *testing.T) {
	c := New(Config{Seed: 55, NumSources: 60, CommentText: true, SyndicationRate: 0.25})
	total := c.Stories().Query(StoryQuery{Limit: 1 << 20}).Total
	if total == 0 {
		t.Fatal("syndicating corpus produced no stories")
	}
	h := c.APIHandler()

	seen := map[int]bool{}
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > total {
			t.Fatal("cursor walk did not terminate")
		}
		target := "/api/v1/stories?k=3"
		if cursor != "" {
			target += "&cursor=" + cursor
		}
		rec := apiGet(t, h, target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.String())
		}
		var env struct {
			Total      int    `json:"total"`
			NextCursor string `json:"next_cursor"`
			Items      []struct {
				ID      int    `json:"id"`
				Title   string `json:"title"`
				Members []struct {
					SourceID int     `json:"source_id"`
					Name     string  `json:"name"`
					Score    float64 `json:"score"`
				} `json:"members"`
			} `json:"items"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("bad envelope: %v", err)
		}
		if env.Total != total {
			t.Fatalf("page total %d, want %d", env.Total, total)
		}
		for _, it := range env.Items {
			if seen[it.ID] {
				t.Fatalf("story %d served twice across pages", it.ID)
			}
			seen[it.ID] = true
			if len(it.Members) < 2 {
				t.Fatalf("story %d has %d members, want >= 2", it.ID, len(it.Members))
			}
			prev := 2.0
			for _, m := range it.Members {
				if m.Score > prev {
					t.Fatalf("story %d members not ranked by score desc", it.ID)
				}
				prev = m.Score
				if m.Name == "" {
					t.Fatalf("story %d member %d has no name", it.ID, m.SourceID)
				}
			}
		}
		if env.NextCursor == "" {
			break
		}
		cursor = env.NextCursor
	}
	if len(seen) != total {
		t.Fatalf("cursor walk served %d stories, listing has %d", len(seen), total)
	}
}
