package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"github.com/informing-observers/informer"
	"github.com/informing-observers/informer/internal/webgen"
)

// publish runs one round through the corpus' public API and returns the
// round's version. An ingested round is its polls plus one DrainTick.
func publish(sp *spec, c *informer.Corpus, r *roundPlan) (int64, error) {
	before := c.SnapshotVersion()
	switch sp.kind {
	case roundAdvance:
		c.Advance(1, r.seed)
	case roundSameDay:
		c.AdvanceSameDay(r.seed, r.sources)
	case roundIngested:
		for j, id := range r.polls {
			c.Ingest(id, r.pseeds[j])
		}
		c.DrainTick()
	}
	v := c.SnapshotVersion()
	if v != before+1 {
		return v, fmt.Errorf("round published %d versions, want 1", v-before)
	}
	return v, nil
}

// e2eResult is what one timed run measured.
type e2eResult struct {
	setup          samples // seconds, one per set-up
	round, fresh   samples // ms
	read           samples // ms, from due (open loop) or send (closed loop); failures are +Inf
	response       samples // ms, from send; the same as read in a closed loop
	genLag         samples // ms, how late the generator sent each read
	byClass        map[string]samples
	rounds         int
	overruns       int // rounds whose reads ended after the next round was due
	cpuMsPerRound  float64
	heapMB         float64
	loadGoroutines int
	collections    int // paced collections in the timed phase
	t              tally
	final          *harness
}

// timedRounds is how many rounds the timed phase of a run publishes.
func timedRounds(sp *spec, seconds int) int {
	n := int(time.Duration(seconds) * time.Second / sp.period)
	if n < 1 {
		n = 1
	}
	return n
}

// genWorld generates the workload's starting world; world generation is
// input, not set-up.
func genWorld(sp *spec) (*webgen.World, float64) {
	t0 := time.Now()
	w := webgen.Generate(sp.world)
	return w, time.Since(t0).Seconds()
}

// runE2E sets the workload up several times, then runs the warm-up and
// the timed phase on the last corpus. The harness is left open for the
// correctness gate.
func runE2E(sp *spec, seed int64, seconds int) (*e2eResult, error) {
	res := &e2eResult{}
	world, _ := genWorld(sp)
	var h *harness
	for i := 0; i < setups; i++ {
		if h != nil {
			h.close()
			h = nil
		}
		runtime.GC()
		t0 := time.Now()
		nh, err := newHarness(sp, world)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup.add(time.Since(t0).Seconds())
		h = nh
	}
	res.final = h
	timed := timedRounds(sp, seconds)
	p := makePlan(sp, seed, world, timed)
	res.loadGoroutines = 1
	if sp.open {
		res.loadGoroutines = 2
	}

	// Warm-up: identical load, nothing recorded.
	gc := newGCPacer()
	defer gc.stop()
	var warm e2eResult
	if err := runPhase(sp, h, gc, p.rounds[:sp.warmup], p.warmReads, &warm); err != nil {
		return nil, err
	}
	res.t = warm.t
	gc.collect()
	gc.collections = 0
	cpu0 := cpuTime()
	if err := runPhase(sp, h, gc, p.rounds[sp.warmup:], p.reads, res); err != nil {
		return nil, err
	}
	res.cpuMsPerRound = float64(cpuTime()-cpu0) / float64(time.Millisecond) / float64(res.rounds)
	res.collections = gc.collections
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapAlloc) / (1 << 20)
	return res, nil
}

// gcPacer runs the garbage collector between rounds instead of inside
// them. Automatic collection is off. After each round and its reads (in
// sparse-serve, after each first quiet round: gcRound) the pacer
// collects once the heap has grown to the goal GOGC=100 would set, twice
// the live heap after the last collection. Collections are thus as
// frequent as the program's allocation makes them, up to one per checked
// round, and their CPU time counts in cpu_ms_per_round, but they no
// longer land inside a round: left to the runtime, a collection
// overlapped about one round in fifteen, and round_ms.p90 moved with how
// many timed rounds a run's collections happened to hit. A memory limit
// at twice the goal stays as a backstop.
type gcPacer struct {
	heap        []metrics.Sample
	goal        uint64
	collections int
}

func newGCPacer() *gcPacer {
	p := &gcPacer{heap: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	debug.SetGCPercent(-1)
	p.collect()
	return p
}

// collect runs a full collection and sets the next goal from the live
// heap it leaves.
func (p *gcPacer) collect() {
	runtime.GC()
	metrics.Read(p.heap)
	p.goal = 2 * p.heap[0].Value.Uint64()
	debug.SetMemoryLimit(int64(2 * p.goal))
	p.collections++
}

// between is called between rounds: it collects when the heap has
// reached its goal.
func (p *gcPacer) between() {
	metrics.Read(p.heap)
	if p.heap[0].Value.Uint64() >= p.goal {
		p.collect()
	}
}

// stop hands collection back to the runtime.
func (p *gcPacer) stop() {
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

// runPhase publishes the rounds on the spec's schedule. Write-heavy
// workloads read after each settled round on the writer's goroutine, in
// a closed loop timed from each send; sparse-serve reads open-loop on a
// second goroutine meanwhile, timed both from each due time and from
// each send. The writer paces the collector after each round and its
// reads.
func runPhase(sp *spec, h *harness, gc *gcPacer, rounds []roundPlan, reads []readPlan, res *e2eResult) error {
	rd := newReader(h.api.URL)
	defer rd.close()
	start := time.Now()
	var (
		wg      sync.WaitGroup
		readRes e2eResult
	)
	if len(reads) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			openReadLoop(rd, start, reads, &readRes)
		}()
	}
	var roundErr error
	for i := range rounds {
		due := start.Add(time.Duration(i) * sp.period)
		if time.Now().Before(due) {
			sleepUntil(due)
		}
		t0 := time.Now()
		v, err := publish(sp, h.c, &rounds[i])
		t1 := time.Now()
		if err != nil {
			res.t.fail("round", err.Error())
			roundErr = err
			break
		}
		res.t.ok()
		res.round.addDur(t1.Sub(t0))
		res.rounds++
		at, err := h.settle(v, time.Now().Add(settleTimeout))
		if err != nil {
			res.t.fail("delivery", err.Error())
			res.fresh.addFailed()
		} else {
			res.t.ok()
			res.fresh.addDur(at.Sub(t0))
		}
		h.drainSubs(v, &res.t)
		for _, rp := range rounds[i].reads {
			r0 := time.Now()
			err := rd.get(rp)
			d := time.Since(r0)
			recordRead(res, d, d, err != nil, rp)
		}
		if gcRound(sp, i) {
			gc.between()
		}
		if due.Add(sp.period).Before(time.Now()) {
			res.overruns++
		}
	}
	wg.Wait()
	res.read = append(res.read, readRes.read...)
	res.response = append(res.response, readRes.response...)
	for k, v := range readRes.byClass {
		if res.byClass == nil {
			res.byClass = map[string]samples{}
		}
		res.byClass[k] = append(res.byClass[k], v...)
	}
	res.genLag = append(res.genLag, readRes.genLag...)
	res.t.attempted += readRes.t.attempted
	res.t.failed += readRes.t.failed
	for k, n := range readRes.t.kinds {
		if res.t.kinds == nil {
			res.t.kinds, res.t.first = map[string]int{}, map[string]string{}
		}
		if res.t.kinds[k] == 0 {
			res.t.first[k] = readRes.t.first[k]
		}
		res.t.kinds[k] += n
	}
	return roundErr
}

// openReadLoop issues the open-loop reads on their own goroutine.
func openReadLoop(rd *reader, start time.Time, reads []readPlan, res *e2eResult) {
	realClock(start).run(dues(reads), func(j int) error {
		return rd.get(reads[j])
	}, func(j int, r loopResult) {
		res.genLag.addDur(r.lag)
		recordRead(res, r.latency, r.response, r.failed, reads[j])
	})
}

// recordRead records one read's latency (from its due time or send) and
// its response time (from its send).
func recordRead(res *e2eResult, latency, response time.Duration, failed bool, rd readPlan) {
	if failed {
		res.read.addFailed()
		res.response.addFailed()
		res.t.fail("read", rd.path)
		return
	}
	res.read.addDur(latency)
	res.response.addDur(response)
	if res.byClass == nil {
		res.byClass = map[string]samples{}
	}
	s := res.byClass[rd.class]
	s.addDur(latency)
	res.byClass[rd.class] = s
	res.t.ok()
}

func dues(reads []readPlan) []time.Duration {
	out := make([]time.Duration, len(reads))
	for i, r := range reads {
		out[i] = r.due
	}
	return out
}

// cpuTime is the process' user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
