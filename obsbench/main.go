// Command obsbench is the repository's end-to-end benchmark: it drives
// one seeded workload through the public Corpus API and the /api/v1
// server on loopback, prints the observer-facing metrics with their units
// and sample counts, and checks the published state against a rebuild.
// With -trace 1 it instead replays the same seeded rounds through each
// layer's public functions and prints the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash obsbench/run.sh --workload daily-watch --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; see NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// procs is the number of processors the benchmark's process runs on.
// The host it was built on has two vCPUs whose second one is shared:
// with both busy the hypervisor took 12% of the CPU time as steal, in
// bursts, and round_ms.p90 of identical runs moved by half; on one
// processor steal stayed near 1%. The engine's parallel paths then run
// one goroutine at a time, so the benchmark measures the work a round
// does, not its parallel speed-up; CPU spent on extra goroutines still
// shows in cpu_ms_per_round.
const procs = 1

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: daily-watch, ingest-stories or sparse-serve")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 replays the rounds layer by layer and reports per-layer metrics")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	sp, err := specByName(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "obsbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsbench:", err)
		}
		os.Exit(2)
	}
	var res *result
	if *trace == 1 {
		res, err = runTraced(sp, *seed, *seconds)
	} else {
		res, err = runEndToEnd(sp, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report collects metrics and prints each one as it is added, with its
// sample count where it has one.
type report struct {
	m map[string]metric
}

func newReport() *report { return &report{m: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string, n int) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = math.MaxFloat64 // a failed operation misses every limit
	}
	r.m[name] = metric{Value: v, Unit: unit}
	show(name, v, unit, n)
}

// show prints a metric without adding it to the JSON line.
func show(name string, v float64, unit string, n int) {
	if n > 0 {
		fmt.Printf("%-34s %14.4f %-6s n=%d\n", name, v, unit, n)
	} else {
		fmt.Printf("%-34s %14.4f %s\n", name, v, unit)
	}
}

// timing prints a series' median and the given percentiles; a gated
// series' median also goes into the JSON line.
func (r *report) timing(name string, s samples, gated bool, perMille ...int) error {
	med, err := s.median()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if gated {
		r.set(name+".p50", med, "ms", len(s))
	} else {
		show(name+".p50", med, "ms", len(s))
	}
	for _, pm := range perMille {
		p, err := s.percentile(pm)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		show(fmt.Sprintf("%s.p%d", name, pm/10), p, "ms", len(s))
	}
	return nil
}

// runEndToEnd is the untraced run: set-up, warm-up, timed phase,
// correctness gate.
func runEndToEnd(sp *spec, seed int64, seconds int) (*result, error) {
	fmt.Printf("obsbench %s seed=%d seconds=%d\n", sp.name, seed, seconds)
	e, err := runE2E(sp, seed, seconds)
	if err != nil {
		return nil, err
	}
	defer e.final.close()
	checkFinal(sp, e.final, &e.t)
	lag, err := e.genLag.percentile(990)
	if err != nil {
		lag, _ = e.genLag.median()
	}
	if lag > genBehindMs {
		e.t.fail("gen-behind", fmt.Sprintf("generator lag p99 %.1f ms > %.0f ms: the offered load was not the schedule's", lag, genBehindMs))
	}

	r := newReport()
	setupMed, _ := e.setup.median()
	r.set("setup_s", setupMed, "s", len(e.setup))
	r.set("heap_mb", e.heapMB, "MB", 0)
	r.set("cpu_ms_per_round", e.cpuMsPerRound, "ms", e.rounds)
	// The tails are printed but not in BENCHMARK.json: across seeds of
	// sparse-serve their spread reached the largest bound a metric may
	// have (NOTES.md). A run with under 1000 reads fails here, on
	// read_ms.p99. read_ms is printed only: timed from the due time in
	// sparse-serve, its median turned a slow stretch of the host into a
	// backlog of queued reads, and it spread past its bound between two
	// sets of ten runs. The gate takes response_ms.p50, the same reads
	// timed from their send; in a closed loop the two are one series.
	if err := r.timing("round_ms", e.round, true, 900); err != nil {
		return nil, err
	}
	if err := r.timing("fresh_ms", e.fresh, true, 900); err != nil {
		return nil, err
	}
	if err := r.timing("read_ms", e.read, false, 900, 990); err != nil {
		return nil, err
	}
	if err := r.timing("response_ms", e.response, true); err != nil {
		return nil, err
	}
	printHealth(e, lag)
	return &result{Correct: e.t.failed == 0, Attempted: e.t.attempted, Failed: e.t.failed, Metrics: r.m}, nil
}

// printHealth prints the load generator's health and the failure tally.
// These lines are informational; the JSON line carries the metrics.
func printHealth(e *e2eResult, lag float64) {
	fmt.Printf("gen: load goroutines=%d connections=%d lag_ms.p99=%.3f (n=%d)\n", e.loadGoroutines, loadConns, lag, len(e.genLag))
	if lag > genBehindMs {
		fmt.Printf("gen: BEHIND — the generator ran more than %.0f ms late; the run counts as failed\n", genBehindMs)
	}
	fmt.Printf("gc: %d paced collections in the timed phase\n", e.collections)
	classes := make([]string, 0, len(e.byClass))
	for k := range e.byClass {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		med, _ := e.byClass[k].median()
		fmt.Printf("read %-14s p50=%.3f ms n=%d\n", k, med, len(e.byClass[k]))
	}
	fmt.Printf("schedule: %d of %d rounds overran their period\n", e.overruns, e.rounds)
	fmt.Printf("failures: %d of %d attempted (share %.4f)\n", e.t.failed, e.t.attempted, e.t.share())
	kinds := make([]string, 0, len(e.t.kinds))
	for k := range e.t.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %s: %d, first: %s\n", k, e.t.kinds[k], e.t.first[k])
	}
}

// genBehindMs is the generator lag p99 beyond which a run fails: its
// offered load was not the schedule's.
const genBehindMs = 25.0

// loadConns is the number of client connections the load generator
// reads over: one reader at a time, its transport capped at one.
const loadConns = 1
