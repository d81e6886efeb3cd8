package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples a tail percentile must leave above
// it before it is reported: a p90 needs at least 100 samples, a p99 at
// least 1000. Fewer samples make the tail a handful of outliers.
const minBeyond = 10

// errFewSamples is returned for a percentile the sample count cannot
// support under the minBeyond rule.
var errFewSamples = errors.New("too few samples for this percentile")

// samples is one timing series in milliseconds. A failed operation is
// recorded as +Inf: it misses every latency limit.
type samples []float64

func (s *samples) add(ms float64) { *s = append(*s, ms) }

// addDur records a duration in milliseconds.
func (s *samples) addDur(d time.Duration) { s.add(float64(d) / float64(time.Millisecond)) }

// addFailed records a failed operation.
func (s *samples) addFailed() { s.add(math.Inf(1)) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median is the middle sample, or the mean of the two middle samples.
func (s samples) median() (float64, error) {
	if len(s) == 0 {
		return 0, errFewSamples
	}
	v := s.sorted()
	n := len(v)
	if n%2 == 1 {
		return v[n/2], nil
	}
	if math.IsInf(v[n/2], 1) {
		return v[n/2], nil
	}
	return (v[n/2-1] + v[n/2]) / 2, nil
}

// percentile is the nearest-rank percentile at perMille/1000, refused
// unless at least minBeyond samples lie above its rank.
func (s samples) percentile(perMille int) (float64, error) {
	n := len(s)
	rank := (perMille*n + 999) / 1000 // ceil(p*n), 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", float64(perMille)/10, n, errFewSamples)
	}
	return s.sorted()[rank-1], nil
}

// tally counts attempted and failed operations, by failure kind. Every
// operation the benchmark performs on the system under test — a round,
// a read, a delivery, a correctness comparison — is attempted once.
type tally struct {
	attempted, failed int
	kinds             map[string]int
	first             map[string]string
}

func (t *tally) ok() { t.attempted++ }

// fail records a failed operation of the given kind; detail keeps the
// first example of each kind for the report.
func (t *tally) fail(kind, detail string) {
	t.attempted++
	t.failed++
	if t.kinds == nil {
		t.kinds = map[string]int{}
		t.first = map[string]string{}
	}
	if t.kinds[kind] == 0 {
		t.first[kind] = detail
	}
	t.kinds[kind]++
}

// check records one comparison: ok when err is nil.
func (t *tally) check(kind string, err error) {
	if err != nil {
		t.fail(kind, err.Error())
		return
	}
	t.ok()
}

func (t *tally) share() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// openLoop runs ops at fixed due times (offsets from start), one at a
// time on one connection, as an open-loop generator: an op is never sent
// before its due time, and its latency is measured from the due time, so
// a stall also counts against every op queued behind it. response is the
// same op timed from its send, which leaves out the wait for earlier ops.
// lag is how late the generator itself sent an op that was not waiting
// for a previous one — the generator's health, not the system's.
type openLoop struct {
	now        func() time.Duration // elapsed since start
	sleepUntil func(time.Duration)
}

// loopResult is one op's timing: latency from due, response time from
// send, generator lag, and whether it failed.
type loopResult struct {
	latency, response, lag time.Duration
	failed                 bool
}

// run executes do(i) for each due offset in order.
func (l openLoop) run(due []time.Duration, do func(i int) error, rec func(i int, r loopResult)) {
	var prevDone time.Duration
	for i, d := range due {
		if l.now() < d {
			l.sleepUntil(d)
		}
		sent := l.now()
		ready := d
		if prevDone > ready {
			ready = prevDone
		}
		lag := sent - ready
		if lag < 0 {
			lag = 0
		}
		err := do(i)
		prevDone = l.now()
		rec(i, loopResult{latency: prevDone - d, response: prevDone - sent, lag: lag, failed: err != nil})
	}
}

// realClock is openLoop's wall clock from start.
func realClock(start time.Time) openLoop {
	return openLoop{
		now:        func() time.Duration { return time.Since(start) },
		sleepUntil: func(d time.Duration) { sleepUntil(start.Add(d)) },
	}
}

// sleepUntil sleeps to t, spinning the last stretch: timer wake-ups are
// coarse enough to add tens of microseconds of jitter to every due time.
// It sleeps in the nanosleep system call, not on a runtime timer: while
// the collector's idle mark workers hold every processor, a goroutine
// whose timer fired waits for a scheduling point, which made reads due
// during a collection leave up to 25 ms late; a goroutine returning
// from a system call is queued where those workers look for work.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - 200*time.Microsecond; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the spin below covers it
	}
	for time.Now().Before(t) {
	}
}
