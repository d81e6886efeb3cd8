package webgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/informing-observers/informer/internal/textgen"
)

// Generate builds a deterministic World from the configuration.
//
//informer:mutates constructor fills the world before it is published
func Generate(cfg Config) *World {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	tg := textgen.NewFromRand(rng)

	w := &World{Config: cfg, Categories: append([]string(nil), cfg.Categories...)}

	genUsers(w, rng, tg)
	weights := make([]float64, len(w.Users))
	for i, u := range w.Users {
		weights[i] = math.Exp(u.Activity)
	}
	w.users = newCumulative(weights)
	genSources(w, rng, tg)
	genLinkGraph(w, rng)
	w.ids = genContent(w, rng, tg)

	for _, s := range w.Sources {
		if n := s.OpenDiscussions(); n > w.MaxOpenDiscussions {
			w.MaxOpenDiscussions = n
		}
	}
	return w
}

//informer:mutates generator stage filling the world under construction
func genUsers(w *World, rng *rand.Rand, tg *textgen.Generator) {
	cfg := w.Config
	w.Users = make([]*User, cfg.NumUsers)
	for i := range w.Users {
		u := &User{
			ID:        i,
			Name:      fmt.Sprintf("%s_%04d", tg.UserName(), i),
			Joined:    cfg.Start.AddDate(-2, 0, 0).Add(time.Duration(rng.Float64() * float64(cfg.End.Sub(cfg.Start.AddDate(-2, 0, 0))) * 0.9)),
			Activity:  rng.NormFloat64(),
			Influence: rng.NormFloat64(),
			Breadth:   rng.NormFloat64(),
		}
		if rng.Float64() < cfg.SpamRate {
			u.Spammer = true
			// Spammers and bots: hyperactive, but nobody reacts to them —
			// the asymmetry Section 3.2 argues lets relative measures
			// filter them out.
			u.Activity += 2.5
			u.Influence -= 3.5
		}
		w.Users[i] = u
	}
}

//informer:mutates generator stage filling the world under construction
func genSources(w *World, rng *rand.Rand, tg *textgen.Generator) {
	cfg := w.Config
	w.Sources = make([]*Source, cfg.NumSources)
	for i := range w.Sources {
		lat := Latent{
			Traffic:       rng.NormFloat64(),
			Participation: rng.NormFloat64(),
			Engagement:    rng.NormFloat64(),
		}
		kind := Blog
		switch r := rng.Float64(); {
		case r < 0.45:
			kind = Blog
		case r < 0.80:
			kind = Forum
		case r < 0.95:
			kind = ReviewSite
		default:
			kind = SocialNetwork
		}
		s := &Source{
			ID:              i,
			Name:            fmt.Sprintf("%s-%s-%03d", cfg.Locations[rng.Intn(len(cfg.Locations))], kind, i),
			Host:            fmt.Sprintf("src%04d.web20.test", i),
			Kind:            kind,
			Founded:         cfg.Start.AddDate(-(1 + rng.Intn(4)), 0, -rng.Intn(300)),
			Latent:          lat,
			FeedSubscribers: poissonish(rng, 40*math.Exp(1.1*lat.Traffic)),
		}
		// A source focuses on one home location plus occasionally a second
		// one, so location terms discriminate between sources in queries.
		home := rng.Intn(len(cfg.Locations))
		s.Locations = []string{cfg.Locations[home]}
		if rng.Float64() < 0.3 && len(cfg.Locations) > 1 {
			other := (home + 1 + rng.Intn(len(cfg.Locations)-1)) % len(cfg.Locations)
			s.Locations = append(s.Locations, cfg.Locations[other])
		}
		// Description mentions a couple of categories to seed the search
		// index.
		cat1 := cfg.Categories[rng.Intn(len(cfg.Categories))]
		cat2 := cfg.Categories[rng.Intn(len(cfg.Categories))]
		s.Description = tg.Sentence(cat1, 0) + " " + tg.Sentence(cat2, 0)
		w.Sources[i] = s
	}
}

// genLinkGraph wires outbound links with preferential attachment toward
// high-traffic sources, so that inbound-link counts become a noisy
// observable of the traffic latent (as they are on the real Web).
//
//informer:mutates generator stage filling the world under construction
func genLinkGraph(w *World, rng *rand.Rand) {
	n := len(w.Sources)
	if n < 2 {
		return
	}
	attract := make([]float64, n)
	for i, s := range w.Sources {
		attract[i] = math.Exp(0.9*s.Latent.Traffic + 0.4*rng.NormFloat64())
	}
	table := newCumulative(attract)
	for _, s := range w.Sources {
		out := poissonish(rng, 6)
		out = clampInt(out, 0, n-1)
		seen := map[int]bool{s.ID: true}
		for len(s.Outbound) < out {
			t := table.pick(rng)
			if seen[t] {
				// Collision on a popular target: skip rather than loop
				// forever on tiny worlds.
				if len(seen) >= n {
					break
				}
				seen[t] = true
				continue
			}
			seen[t] = true
			s.Outbound = append(s.Outbound, t)
		}
		sort.Ints(s.Outbound)
	}
	for _, s := range w.Sources {
		for _, t := range s.Outbound {
			w.Sources[t].Inbound = append(w.Sources[t].Inbound, s.ID)
		}
	}
}

// locationCoords maps the default location names to plausible coordinates
// for geo-tagged comments (Figure 1's map viewer).
var locationCoords = map[string]GeoPoint{
	"milan":    {45.4642, 9.1900},
	"rome":     {41.9028, 12.4964},
	"florence": {43.7696, 11.2558},
	"venice":   {45.4408, 12.3155},
	"turin":    {45.0703, 7.6869},
	"naples":   {40.8518, 14.2681},
	"bologna":  {44.4949, 11.3426},
	"genoa":    {44.4056, 8.9463},
	"verona":   {45.4384, 10.9916},
	"palermo":  {38.1157, 13.3615},
	"bari":     {41.1171, 16.8719},
	"trieste":  {45.6495, 13.7768},
	"padua":    {45.4064, 11.8768},
	"parma":    {44.8015, 10.3279},
	"catania":  {37.5079, 15.0830},
	"cagliari": {39.2238, 9.1217},
	"perugia":  {43.1107, 12.3908},
	"pisa":     {43.7228, 10.4017},
}

// genContent fills every source's discussions and comments, minting IDs
// sequentially from zero, and returns the resulting ID frontier.
func genContent(w *World, rng *rand.Rand, tg *textgen.Generator) IDCursor {
	cfg := w.Config
	cats := cfg.Categories
	days := w.Days()

	// Per-category author tables: a user may author in a category when the
	// category index falls inside their breadth-driven allowance. Weights
	// follow activity, so a small set of users dominates volume (Zipf-like
	// participation, as observed on real platforms).
	catUsers := make([][]int, len(cats))
	catWeights := make([][]float64, len(cats))
	for ci := range cats {
		for _, u := range w.Users {
			allowed := 1 + int(sigmoid(u.Breadth)*float64(len(cats)))
			// Users cover a contiguous window of categories starting at a
			// stable per-user offset, giving heterogeneous centrality.
			offset := u.ID % len(cats)
			in := false
			for k := 0; k < allowed; k++ {
				if (offset+k)%len(cats) == ci {
					in = true
					break
				}
			}
			if in {
				catUsers[ci] = append(catUsers[ci], u.ID)
				catWeights[ci] = append(catWeights[ci], math.Exp(u.Activity))
			}
		}
	}
	catTables := make([]*cumulative, len(cats))
	for ci := range cats {
		if len(catUsers[ci]) > 0 {
			catTables[ci] = newCumulative(catWeights[ci])
		}
	}
	allTable := w.users

	discID, comID := 0, 0
	for _, s := range w.Sources {
		// Focus: sources specialize in a small subset of categories (one
		// to three), which keeps topical queries discriminating.
		maxFocus := 3
		if maxFocus > len(cats) {
			maxFocus = len(cats)
		}
		nFocus := 1 + rng.Intn(maxFocus)
		focus := rng.Perm(len(cats))[:nFocus]
		// Per-source trait for tag richness (interpretability) and
		// off-topic rate (accuracy), independent of the three latents.
		tagRichness := 1 + 3*sigmoid(rng.NormFloat64())
		offTopicRate := 0.02 + 0.18*sigmoid(rng.NormFloat64()-1)

		nDisc := clampInt(poissonish(rng, cfg.MeanDiscussions*math.Exp(0.55*s.Latent.Participation)), 1, 250)
		for d := 0; d < nDisc; d++ {
			var cat string
			offTopic := rng.Float64() < offTopicRate
			if !offTopic {
				cat = cats[focus[rng.Intn(len(focus))]]
			}
			opened := cfg.Start.Add(time.Duration(rng.Float64() * days * float64(24*time.Hour)))
			var opener int
			ci := indexOf(cats, cat)
			if ci >= 0 && catTables[ci] != nil {
				opener = catUsers[ci][catTables[ci].pick(rng)]
			} else {
				opener = allTable.pick(rng)
			}
			disc := &Discussion{
				ID:       discID,
				SourceID: s.ID,
				OpenerID: opener,
				Opened:   opened,
				Open:     rng.Float64() < 0.7,
				Category: cat,
			}
			discID++
			if offTopic {
				disc.Title = "General chat " + fmt.Sprint(d)
				disc.Tags = []string{"offtopic"}
			} else {
				disc.Title = tg.Title(cat)
				disc.Tags = tg.Tags(cat, 1+poissonish(rng, tagRichness-1))
			}

			nCom := clampInt(poissonish(rng, cfg.MeanComments*math.Exp(0.5*s.Latent.Participation)), 0, 400)
			maxAge := cfg.End.Sub(opened)
			for c := 0; c < nCom; c++ {
				var author int
				if ci >= 0 && catTables[ci] != nil {
					author = catUsers[ci][catTables[ci].pick(rng)]
				} else {
					author = allTable.pick(rng)
				}
				u := w.Users[author]
				posted := opened.Add(time.Duration(rng.Float64() * float64(maxAge)))
				polarity := samplePolarity(rng)
				com := &Comment{
					ID:        comID,
					UserID:    author,
					Posted:    posted,
					Polarity:  polarity,
					Replies:   poissonish(rng, 0.8*math.Exp(0.6*u.Influence)),
					Feedbacks: poissonish(rng, 1.2*math.Exp(0.7*u.Influence)),
					Reads:     poissonish(rng, 15*math.Exp(0.5*u.Influence+0.3*s.Latent.Participation)),
				}
				comID++
				if !offTopic {
					com.Tags = tg.Tags(cat, poissonish(rng, tagRichness-1))
				}
				if cfg.CommentText {
					switch {
					case offTopic:
						com.Body = tg.OffTopicComment(0)
					case polarity != 0 && rng.Float64() < 0.1:
						// Express the polarity through negation ("not
						// terrible" for +1) to exercise the sentiment
						// analyzer's negation handling.
						com.Body = tg.NegatedSentence(cat, -polarity)
					default:
						com.Body = tg.Comment(cat, polarity, 0)
					}
					maybeSyndicate(w, rng, tg, s.ID, com)
				}
				if rng.Float64() < 0.3 {
					loc := s.Locations[rng.Intn(len(s.Locations))]
					if base, ok := locationCoords[loc]; ok {
						com.Geo = &GeoPoint{
							Lat: base.Lat + 0.05*rng.NormFloat64(),
							Lon: base.Lon + 0.05*rng.NormFloat64(),
						}
					}
				}
				disc.Comments = append(disc.Comments, com)
			}
			s.Discussions = append(s.Discussions, disc)
		}
	}
	return IDCursor{NextDiscussionID: discID, NextCommentID: comID}
}

// maybeSyndicate replaces a freshly generated comment body with a copy of
// an earlier comment from another source — verbatim about half the time
// (guaranteed duplicate-tier hit), otherwise prefixed with a short
// attribution lead (a near-duplicate at the looser story tier). The donor
// is drawn uniformly from the world as populated so far; a draw landing
// on the commenting source itself, an empty discussion, or an already
// syndicated comment leaves the body as generated (still deterministic —
// the draws are consumed either way). With SyndicationRate == 0 the gate
// consumes no randomness, so pre-existing generation streams are
// byte-identical.
func maybeSyndicate(w *World, rng *rand.Rand, tg *textgen.Generator, sourceID int, com *Comment) {
	cfg := w.Config
	if cfg.SyndicationRate <= 0 || com.Body == "" {
		return
	}
	if rng.Float64() >= cfg.SyndicationRate {
		return
	}
	donor := w.Sources[rng.Intn(len(w.Sources))]
	if donor.ID == sourceID || len(donor.Discussions) == 0 {
		return
	}
	d := donor.Discussions[rng.Intn(len(donor.Discussions))]
	if len(d.Comments) == 0 {
		return
	}
	c := d.Comments[rng.Intn(len(d.Comments))]
	if c.Body == "" || c.Syndicated {
		return // copy originals only, so ground truth stays two-level
	}
	com.Syndicated = true
	com.SyndicatedFrom = donor.ID
	if rng.Float64() < 0.5 {
		com.Body = c.Body
	} else {
		com.Body = tg.SyndicationLead() + " " + c.Body
	}
}

// samplePolarity draws ground-truth comment sentiment: mostly positive or
// neutral with a meaningful negative share, like real travel feedback.
func samplePolarity(rng *rand.Rand) int {
	switch r := rng.Float64(); {
	case r < 0.45:
		return 1
	case r < 0.75:
		return 0
	default:
		return -1
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
