// Command perfbench is the repository's end-to-end benchmark. It
// starts an in-process three-member hash-sharded fleet with a router
// in front, drives it with two closed-loop clients over at most two
// connections, checks that every answer was correct and durable, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object with the run's metrics.
//
//	go run . -workload fleet-write -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// alternates untraced and traced fleets and reports the per-layer
// metrics of the traced ones (LAYERS.md maps each to its layer). Any
// failed correctness check exits non-zero and prints no metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// warmup is the traffic run on each fresh fleet before timing starts;
// it is charged to setup_s.
const warmup = 500 * time.Millisecond

// warmStream offsets the warm-up streams from the timed ones.
const warmStream = 1000

// procs is the GOMAXPROCS the benchmark runs with. The whole fleet
// shares one process, and on a small shared host the second core's
// speed swings with the neighbours' load. With two Ps, slow spells
// cut commits_per_s by more than half and quadrupled p99_ms; with one
// P the same spells moved each by under a fifth.
const procs = 1

func main() {
	name := flag.String("workload", "fleet-write", "workload: fleet-write, fleet-read or fleet-hot")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed seconds per run, split over the run's fleets")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced fleets")
	walRoot := flag.String("wal", filepath.Join(".bench_build", "perfbench-wal"), "directory the members' WAL directories are made in")
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: -workload %q -seconds %v -trace %d\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(*walRoot, 0o755); err != nil {
		fail(err)
	}
	runDir, err := os.MkdirTemp(*walRoot, "run-")
	if err != nil {
		fail(err)
	}
	lines, res, err := run(w, *seed, *seconds, *traced == 1, runDir)
	if rerr := os.RemoveAll(runDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fail(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: %v\n", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Fleets per run. An untraced run reports the median over its fleets
// of each end-to-end metric, so one fleet's disk or scheduler hiccup
// does not move the result. A traced run alternates untraced and
// traced fleets and pools each kind.
const (
	plainFleets  = 9
	tracedFleets = 2
)

// run measures one workload. Each fleet gets an equal share of the
// timed seconds.
func run(w workload, seed int64, seconds float64, traced bool, dir string) ([]string, result, error) {
	plan := make([]bool, plainFleets)
	if traced {
		plan = nil
		for i := 0; i < tracedFleets; i++ {
			plan = append(plan, false, true)
		}
	}
	share := time.Duration(seconds / float64(len(plan)) * float64(time.Second))
	var r report
	r.line("workload %s seed %d nproc %d GOMAXPROCS %d fleets %d traced %v",
		w.name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(plan), traced)
	var plain, trc pool
	var e2e [5][]float64 // per fleet: commits/s, p50, p99, cpu/tx, setup
	for i, t := range plan {
		seg, err := runSegment(w, seed, i, share, 0, t, filepath.Join(dir, fmt.Sprintf("fleet%d", i)))
		if err != nil {
			return nil, result{}, fmt.Errorf("%s fleet %d: %w", w.name, i, err)
		}
		var one pool
		one.add(seg)
		p50, p99 := one.latencyQuantiles()
		for j, v := range []float64{one.commitRate(), p50, p99, one.cpuPerTx(), seg.setup.Seconds()} {
			e2e[j] = append(e2e[j], v)
		}
		r.line("fleet %d traced %-5v setup %.3f s, %d attempts, %.1f commits/s, p50 %.3f ms, p99 %.3f ms, cpu %.1f us/tx",
			i, t, seg.setup.Seconds(), one.attempted(), one.commitRate(), p50, p99, one.cpuPerTx())
		if t {
			trc.add(seg)
		} else {
			plain.add(seg)
		}
	}

	m := &plain
	if traced {
		m = &trc
	}
	r.line("attempted %d = committed %d + lock-aborted %d + other-aborted %d + shed %d + errors %d",
		m.attempted(), m.count(committed), m.count(lockAbort), m.count(otherAbort), m.count(shed), m.count(transportErr))
	if !traced {
		r.add("commits_per_s", median(e2e[0]), "1/s")
		r.add("p50_ms", median(e2e[1]), "ms")
		r.add("p99_ms", median(e2e[2]), "ms")
		r.line("p99_ms samples %d in %d fleets", m.attempted(), len(plan))
		r.add("cpu_us_per_tx", median(e2e[3]), "us")
		r.add("setup_s", median(e2e[4]), "s")
		r.info("fail_ratio", m.failRatio(), "ratio")
	} else {
		trc.layers(&r)
		r.add("bench.fail_ratio", trc.failRatio(), "ratio")
		over := 0.0
		if u := plain.commitRate(); u > 0 {
			over = (u - trc.commitRate()) / u * 100
		}
		r.add("bench.trace_overhead_pct", over, "%")
	}
	res := result{
		Correct:   true,
		Attempted: m.attempted(),
		Failed:    m.failed(),
		Metrics:   r.metrics,
	}
	return r.lines, res, nil
}

// report accumulates the printed lines and the JSON metrics.
type report struct {
	lines   []string
	metrics map[string]metric
}

func (r *report) line(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// add reports a metric in the JSON line and prints it.
func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.info(name, v, unit)
}

// info prints a metric without putting it in the JSON line.
func (r *report) info(name string, v float64, unit string) {
	r.line("metric %-26s %14.4f %s", name, v, unit)
}

// segment is what one fleet measured.
type segment struct {
	setup    time.Duration
	elapsed  time.Duration
	cpu      time.Duration
	attempts []attempt
	layer    counters
	tr       *tracer
}

// runSegment sets up one fleet, times it for d (or until each client
// has run perClient transactions, when perClient > 0), then drains it
// and checks every answer it gave.
func runSegment(w workload, seed int64, index int, d time.Duration, perClient int, traced bool, dir string) (segment, error) {
	var seg segment
	start := time.Now()
	if traced {
		seg.tr = &tracer{}
		http.DefaultTransport = seg.tr.stageTransport()
		defer func() { http.DefaultTransport = baseTransport }()
	}
	f, err := startFleet(dir, seg.tr)
	if err != nil {
		return seg, err
	}
	closed := false
	defer func() {
		if !closed {
			_ = f.close()
		}
	}()
	ctx := context.Background()
	drv := newLoader(f, w, index)
	if err := drv.preload(ctx); err != nil {
		return seg, err
	}
	// The warm-up draws from its own stream, so the timed window's
	// transactions depend on the seed alone.
	drv.useStream(seed, warmStream+index)
	drv.run(ctx, time.Now().Add(warmup), 0)
	// Let the warm-up's acknowledgements and lazy records land, so the
	// window's counters hold only the window's transactions.
	if err := drainAudit(f); err != nil {
		return seg, err
	}
	seg.setup = time.Since(start)

	drv.useStream(seed, index)
	before := snapshot(f)
	cpu0 := cpuTime()
	var sampler *waiterSampler
	if traced {
		seg.tr.on.Store(true)
		sampler = startWaiterSampler(f)
	}
	t0 := time.Now()
	seg.attempts = drv.run(ctx, t0.Add(d), perClient)
	seg.elapsed = time.Since(t0)
	seg.cpu = cpuTime() - cpu0
	end := snapshot(f)
	var waiterSum, waiterSamples int
	if traced {
		seg.tr.on.Store(false)
		waiterSum, waiterSamples = sampler.stop()
	}

	if err := drainAudit(f); err != nil {
		return seg, err
	}
	seg.layer = window(before, end, snapshot(f))
	seg.layer.waiterSum, seg.layer.waiterSamples = waiterSum, waiterSamples
	if err := checkValues(f, drv.done); err != nil {
		return seg, err
	}
	closed = true
	if err := f.close(); err != nil {
		return seg, fmt.Errorf("close fleet: %w", err)
	}
	return seg, checkDurable(f, drv.done)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pool sums the segments of one kind.
type pool struct {
	elapsed  time.Duration
	cpu      time.Duration
	attempts []attempt
	layer    counters
	tr       tracer
}

func (p *pool) add(s segment) {
	p.elapsed += s.elapsed
	p.cpu += s.cpu
	p.attempts = append(p.attempts, s.attempts...)
	p.layer.add(s.layer)
	if s.tr != nil {
		p.tr.forward = append(p.tr.forward, s.tr.forward...)
		p.tr.self = append(p.tr.self, s.tr.self...)
		p.tr.coord = append(p.tr.coord, s.tr.coord...)
		p.tr.httpPart = append(p.tr.httpPart, s.tr.httpPart...)
		p.tr.stage = append(p.tr.stage, s.tr.stage...)
		p.tr.syncs = append(p.tr.syncs, s.tr.syncs...)
		p.tr.walBytes += s.tr.walBytes
	}
}

func (p *pool) attempted() int { return len(p.attempts) }

func (p *pool) count(o outcome) int {
	n := 0
	for _, a := range p.attempts {
		if a.out == o {
			n++
		}
	}
	return n
}

// failed counts attempts that went wrong: errors, sheds and aborts
// for any reason other than lock contention while staging, which is
// an expected outcome of contended traffic.
func (p *pool) failed() int {
	return p.attempted() - p.count(committed) - p.count(lockAbort)
}

func (p *pool) failRatio() float64 {
	return float64(p.count(transportErr)+p.count(shed)) / float64(max(p.attempted(), 1))
}

func (p *pool) cpuPerTx() float64 {
	return float64(p.cpu) / float64(time.Microsecond) / float64(max(p.count(committed), 1))
}

func (p *pool) commitRate() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.count(committed)) / p.elapsed.Seconds()
}

// latencyQuantiles gives the median and 99th percentile over every
// attempt. An attempt that did not commit ranks slower than every
// commit: its value is its own latency or the slowest commit's,
// whichever is larger.
func (p *pool) latencyQuantiles() (p50, p99 float64) {
	var commits, others []time.Duration
	for _, a := range p.attempts {
		if a.out == committed {
			commits = append(commits, a.lat)
		} else {
			others = append(others, a.lat)
		}
	}
	sortDurations(commits)
	sortDurations(others)
	var slowest time.Duration
	if len(commits) > 0 {
		slowest = commits[len(commits)-1]
	}
	ranked := commits
	for _, d := range others {
		ranked = append(ranked, max(d, slowest))
	}
	return ms(quantile(ranked, 0.50)), ms(quantile(ranked, 0.99))
}

func sortDurations(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quantileUS sorts values and returns the q-quantile in microseconds.
func quantileUS(values []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), values...)
	sortDurations(s)
	return float64(quantile(s, q)) / float64(time.Microsecond)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
