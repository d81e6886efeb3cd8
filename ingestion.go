package informer

import "github.com/informing-observers/informer/internal/webgen"

// Ingest runs one per-source ingestion tick: the chosen source generates
// fresh activity (webgen.AdvanceSource — same-day, copy-on-write,
// deterministic per seed) on top of the ingestion frontier, and the
// resulting delta folds into the corpus' pending-delta accumulator
// WITHOUT publishing an assessment round — readers keep serving the last
// drained snapshot untouched. DrainTick (or the next global Advance /
// AdvanceSameDay) later coalesces every pending tick into one spanning
// delta and one UpdateRows repair, bit-identical to having applied the
// ticks one published round at a time.
//
// The returned delta describes just this tick (empty when the source drew
// no activity) — the adaptive poll scheduler's feedback signal. It is
// never mutated by later folds.
func (c *Corpus) Ingest(sourceID int, seed int64) *Delta {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	from := c.pending.Frontier(c.state.Load().world)
	world, delta := webgen.AdvanceSource(from, sourceID, seed, nil)
	if world == from {
		return delta // quiet poll: nothing to buffer
	}
	if err := c.pending.Add(from, world, delta); err != nil {
		// Unreachable: from IS the accumulator's frontier under advanceMu.
		panic("informer: ingestion frontier moved under the writer lock: " + err.Error())
	}
	return delta
}

// PendingIngest reports the buffered ingestion since the last drain: how
// many per-source ticks and how many coalesced new comments are waiting
// for an assessment round. Drives ingest.DrainPolicy decisions and
// observability.
func (c *Corpus) PendingIngest() (ticks, comments int) {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	return c.pending.Ticks(), c.pending.PendingComments()
}

// DrainTick drains the pending-delta accumulator into exactly one
// published assessment round: the buffered per-source ticks' coalesced
// spanning delta drives one incremental repair (one UpdateRows pass over
// the union dirty set), the snapshot swaps atomically, and the
// subscription registry fans out one round — however many ticks were
// buffered. Results are bit-identical both to a fresh rebuild of the
// frontier world and to publishing every buffered tick individually (the
// randomized equivalence suites in advance_test.go and
// shard_equiv_test.go pin both).
//
// Returns the number of coalesced ticks and whether a round was published
// (false when nothing was pending — no round publishes, readers and
// subscribers see nothing).
func (c *Corpus) DrainTick() (ticks int, published bool) {
	c.advanceMu.Lock()
	defer c.advanceMu.Unlock()
	return c.drainLocked(c.state.Load())
}

// drainLocked publishes the pending span, if any. Callers hold advanceMu.
func (c *Corpus) drainLocked(cur *assessState) (int, bool) {
	if c.pending.Empty() {
		return 0, false
	}
	world, delta, n := c.pending.Drain()
	c.publishAdvance(cur, world, delta)
	return n, true
}
