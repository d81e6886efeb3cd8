package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so sorting is exercised
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, perMille int
		want        float64
		refused     bool
	}{
		{n: 999, perMille: 990, refused: true},
		{n: 1000, perMille: 990, want: 990},
		{n: 2000, perMille: 990, want: 1980},
		{n: 99, perMille: 900, refused: true},
		{n: 100, perMille: 900, want: 90},
		{n: 19, perMille: 500, refused: true},
		{n: 20, perMille: 500, want: 10},
	} {
		got, err := seq(tc.n).percentile(tc.perMille)
		if tc.refused {
			if !errors.Is(err, errFewSamples) {
				t.Errorf("p%d of %d samples: got %v, %v; want refusal", tc.perMille/10, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%d of %d samples = %v, %v; want %v", tc.perMille/10, tc.n, got, err, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m, _ := (samples{3, 1, 2}).median(); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m, _ := (samples{4, 1, 3, 2}).median(); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	var s samples
	if _, err := s.median(); !errors.Is(err, errFewSamples) {
		t.Errorf("median of nothing: %v, want refusal", err)
	}
}

// fakeClock drives openLoop without sleeping: ops advance it by their
// service time, and sleepUntil oversleeps by a set amount.
type fakeClock struct {
	t         time.Duration
	oversleep time.Duration
}

func (c *fakeClock) loop() openLoop {
	return openLoop{
		now:        func() time.Duration { return c.t },
		sleepUntil: func(d time.Duration) { c.t = d + c.oversleep },
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 60 * ms}
	service := []time.Duration{25 * ms, 5 * ms, 5 * ms, 5 * ms, 5 * ms}
	var got []loopResult
	clk.loop().run(due, func(i int) error {
		clk.t += service[i]
		return nil
	}, func(i int, r loopResult) { got = append(got, r) })
	// Op 0 stalls 25 ms; ops 1-3 queue behind it and are timed from
	// their due times, so the stall counts against each of them.
	// Their response time, from the send, is their own service time.
	want := []time.Duration{25 * ms, 20 * ms, 15 * ms, 10 * ms, 5 * ms}
	for i, r := range got {
		if r.latency != want[i] || r.response != service[i] || r.lag != 0 {
			t.Errorf("op %d: latency %v response %v lag %v, want %v response %v lag 0", i, r.latency, r.response, r.lag, want[i], service[i])
		}
	}
}

func TestOpenLoopReportsGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{oversleep: 2 * ms}
	var got []loopResult
	clk.loop().run([]time.Duration{10 * ms, 20 * ms}, func(int) error {
		clk.t += ms
		return nil
	}, func(i int, r loopResult) { got = append(got, r) })
	for i, r := range got {
		if r.lag != 2*ms || r.latency != 3*ms || r.response != ms {
			t.Errorf("op %d: lag %v latency %v response %v, want lag 2ms latency 3ms response 1ms", i, r.lag, r.latency, r.response)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	tl.ok()
	tl.fail("read", "GET /x: status 503")
	tl.check("check-window", nil)
	tl.check("check-window", errors.New("rank 1 differs"))
	tl.fail("read", "GET /y: status 500")
	if tl.attempted != 5 || tl.failed != 3 || tl.kinds["read"] != 2 || tl.kinds["check-window"] != 1 {
		t.Fatalf("tally = %+v, want 5 attempted, 3 failed (2 read, 1 check-window)", tl)
	}
	if tl.first["read"] != "GET /x: status 503" {
		t.Errorf("first read failure = %q, want the first one recorded", tl.first["read"])
	}
	if got := tl.share(); got != 0.6 {
		t.Errorf("share = %v, want 0.6", got)
	}

	// A failed read misses every latency limit: eleven failures among a
	// thousand reads put p99 at +Inf, which the report prints as the
	// largest finite number.
	s := seq(989)
	for i := 0; i < 11; i++ {
		s.addFailed()
	}
	p, err := s.percentile(990)
	if err != nil || !math.IsInf(p, 1) {
		t.Fatalf("p99 with 11 failures of 1000 = %v, %v; want +Inf", p, err)
	}
	r := newReport()
	r.set("read_ms.p99", p, "ms", len(s))
	if r.m["read_ms.p99"].Value != math.MaxFloat64 {
		t.Errorf("reported %v, want MaxFloat64", r.m["read_ms.p99"].Value)
	}
}
