// Command perfbench is the repository's benchmark: it drives the
// reproduction from outside, through exported constructors only, on
// three workloads, prints every end-to-end metric with its unit and
// sample count, checks every output, and ends with one JSON line.
//
// Run it from the repository root (the wrapper builds it from source
// into .bench_build first):
//
//	bash perfbench/run.sh --workload live-topo --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing at all.
// --trace 1 is a separate run that times the calls into each layer's
// public functions and prints the per-layer metrics, a ledger of where
// the end-to-end time went, and the tracing overhead (the same workload
// measured untraced and traced within the run). No tracing is inside
// the program.
//
// cmd/reissue-bench and BENCH_sim.json stay the CI allocation gate;
// this benchmark is the end-to-end and per-layer record that a
// performance change is judged by.
//
// # Workloads
//
//   - figures: regenerates every table reissue-figures -fig all
//     selects (Figures 2-9, extensions x1-x4) at -scale test, cold, in
//     a fresh process, through experiments.RunJobs at nproc workers —
//     the reproduction's job as its users run it. The simulator,
//     optimizer, sweep pool and trace-generation layers do all the
//     work; the live stack does none. Most of the wall time is the
//     serial Redis and Lucene trace generation. Each table's digest is
//     checked against the recorded reference (or the figure goldens,
//     where the scale matches theirs). The tables are fixed by the
//     experiments' own seeds, which the digest check relies on, so this
//     workload does not use --seed.
//   - live-topo: the paper's live scenario. An open-loop Poisson load at
//     one fixed rate drives a cache tier (tier.New over tier.NewKVCache)
//     in front of a 2-shard kvstore store; each shard is a shard.New
//     edge over a 3-replica fleet served over HTTP loopback
//     (transport.ServeAll + transport.NewClient) with one replica 2.5x
//     slow, and one store replica sits behind a fault.New Slow profile
//     limited to a window of queries. Every edge runs a fixed SingleR
//     policy and holds run real SINTER work. It is the only workload
//     that uses the tier, shard, transport and fault layers. Latency
//     is charged from each query's due instant, so a late generator
//     counts against the request; every answer is checked against the
//     SINTER cardinality computed independently here.
//   - hedge-saturate: a closed loop with nproc callers against an
//     instant in-process fleet (4 replicas from backend.NewCustom with
//     zero model times, executor returning the query index) under
//     SingleR{D: 0, Q: 0.5}. The cost of hedge.Do, the replica hand-off
//     in backend and sched is all the work, so a hot-path gain diluted
//     in live-topo shows here; it bypasses transport, composition and
//     the simulator, so changes there must leave it unchanged.
//
// # End-to-end metrics
//
// Every workload reports the same names. A query is one cold figure
// regeneration (figures), one tier query (live-topo) or one hedge.Do
// call (hedge-saturate).
//
//	setup_s           time until the workload can start (median of several set-ups)
//	p50_ms, p99_ms    query latency; a few figures regenerations support no
//	                  percentile above the median, so figures reports the median for both
//	cpu_us_per_query  process user+sys CPU per query
//	qps               queries completed per second
//	peak_rss_mb       peak resident memory of the process doing the work; hedge-saturate
//	                  reports the median of its measured loop's 1 s window peaks
//
// The readable lines also give figures_s, reissue_rate and fail_frac
// (failed or wrong answers over attempted, also in the JSON counts).
//
// # Per-layer metrics
//
// Each layer metric, the end-to-end metric it should move, and the
// workload where it should; every other workload should show no change.
//
//	kvstore.gen_s, searchengine.gen_s        figures_s @ figures
//	sweep.cpu_util, .max_point_s, .points    figures_s @ figures
//	experiments.<job>_s (fig2a ... x4)       figures_s @ figures
//	cluster.us_per_query                     figures_s @ figures
//	des.ns_per_event                         figures_s @ figures
//	sched.ns_per_op                          figures_s @ figures, qps @ hedge-saturate
//	reissue.optimize_ms                      figures_s @ figures
//	hedge.do_us.*, .overhead_us.p50,         qps, cpu_us_per_query @ hedge-saturate;
//	  .allocs/.bytes/.copies_per_query,        reissue_rate @ live-topo
//	  .reissue_win_frac
//	backend.queue_wait_ms.*, .hold_ms.p50,   p99_ms @ live-topo, hedge-saturate
//	  .cancelled_queued
//	transport.rpc_ms.*, .wire_ms.p50         p50_ms, cpu_us_per_query @ live-topo
//	shard.fanout_ms.*, .skew_ms.p99          p99_ms @ live-topo
//	tier.do_ms.*, .store_frac                p50_ms, p99_ms @ live-topo
//	fault.slowed, .stretch_ms.p99            p99_ms @ live-topo
//	loadgen.late_ms.p99, .max                whether p99_ms measured the program or the machine
//	gc.cycles_per_1k_queries, gc.pause_ms    p99_ms @ hedge-saturate
//
// A metric a workload does not exercise is printed as 0 and named on
// the "absent" line with the reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/reissue/hedge/backend"
)

// options are the benchmark's arguments plus the machine facts every
// workload needs.
type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	sleep   backend.SleepResponse
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: figures, live-topo or hedge-saturate")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 for the traced per-layer run")
		child    = flag.String("child", "", "internal: run one figures child process (regen, regen-traced, setup)")
	)
	flag.Parse()
	if *child != "" {
		if err := figuresChild(*child, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, workload string, seed uint64, seconds, trace int) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	o := options{seed: seed, seconds: time.Duration(seconds) * time.Second, traced: trace == 1,
		sleep: backend.MeasureSleepResponse()}
	m := machineStanza(o)
	fmt.Fprintf(w, "machine: %s\n", m)

	var r *report
	switch workload {
	case "figures":
		r, err = runFigures(o)
	case "live-topo":
		r, err = runLiveTopo(o)
	case "hedge-saturate":
		r, err = runSaturate(o)
	default:
		return fmt.Errorf("unknown --workload %q (want figures, live-topo or hedge-saturate)", workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if o.traced {
		return r.emit(w, workload, spec.PerLayer, true)
	}
	return r.emit(w, workload, spec.EndToEnd, false)
}

func machineStanza(o options) string {
	b, _ := json.Marshal(map[string]any{
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"go":                 runtime.Version(),
		"seed":               o.seed,
		"sleep_floor_ms":     ms(o.sleep.Floor),
		"sleep_overshoot_ms": ms(o.sleep.Overshoot),
	})
	return string(b)
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads the metric names and units the JSON line must carry
// from the repository's BENCHMARK.json, so the two cannot drift apart.
func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric list (run from the repository root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// row is one printed measurement.
type row struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // how the value was taken, or why it is unsupported
}

// report collects one run's measurements and output checks.
type report struct {
	rows      []row
	absent    map[string]string // metric or layer prefix → why it is not measured here
	ledger    []string
	attempted int64
	failed    int64
	checks    []string // failed output checks, for the readable lines
}

func newReport() *report { return &report{absent: map[string]string{}} }

func (r *report) add(name string, value float64, unit string, n int, note string) {
	r.rows = append(r.rows, row{name, value, unit, n, note})
}

// addDist adds the p50 and p99 of a latency sample in the given unit.
// A p99 without minBeyond samples beyond it is still printed, marked
// unsupported.
func (r *report) addDist(prefix string, d dist, unit string) {
	r.add(prefix+".p50", d.q(0.5), unit, len(d), "")
	note := ""
	if !d.supported(0.99) {
		note = "unsupported: fewer than 10 samples beyond"
	}
	r.add(prefix+".p99", d.q(0.99), unit, len(d), note)
}

func (r *report) lookup(name string) (row, bool) {
	for _, x := range r.rows {
		if x.name == name {
			return x, true
		}
	}
	return row{}, false
}

func (r *report) fail(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

// emit prints the readable lines and the final JSON object carrying
// exactly the named metrics. A per-layer metric the run did not
// measure is reported as 0 and named with the reason; a missing
// end-to-end metric, or a failed output check, fails the run.
func (r *report) emit(w io.Writer, workload string, names []specMetric, perLayer bool) error {
	fmt.Fprintf(w, "workload %s:\n", workload)
	for _, x := range r.rows {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s n=%-8d %s\n", x.name, x.value, x.unit, x.n, x.note)
	}
	for _, l := range r.ledger {
		fmt.Fprintf(w, "ledger %s: %s\n", workload, l)
	}
	metrics := map[string]map[string]any{}
	var missing []string
	for _, m := range names {
		x, ok := r.lookup(m.Name)
		if perLayer && ok && math.IsNaN(x.value) {
			r.absent[m.Name] = "no samples in this run"
			ok = false
		}
		if !ok {
			missing = append(missing, m.Name)
			x = row{value: 0, unit: m.Unit}
		}
		if x.unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, x.unit, m.Unit)
		}
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, x.value)
		}
		metrics[m.Name] = map[string]any{"value": x.value, "unit": m.Unit}
	}
	if len(missing) > 0 {
		if !perLayer {
			return fmt.Errorf("end-to-end metrics not measured: %v", missing)
		}
		byReason := map[string][]string{}
		for _, name := range missing {
			prefix, _, _ := strings.Cut(name, ".")
			reason := r.absent[name]
			if reason == "" {
				reason = r.absent[prefix]
			}
			if reason == "" {
				reason = "layer not on this workload's path"
			}
			byReason[reason] = append(byReason[reason], name)
		}
		reasons := make([]string, 0, len(byReason))
		for k := range byReason {
			reasons = append(reasons, k)
		}
		sort.Strings(reasons)
		for _, k := range reasons {
			fmt.Fprintf(w, "absent (reported as 0): %s: %s\n", k, strings.Join(byReason[k], " "))
		}
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", c)
	}
	correct := len(r.checks) == 0
	b, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	if !correct {
		return fmt.Errorf("%d output check(s) failed", len(r.checks))
	}
	return nil
}

// addFailFrac adds the failed-over-attempted row every workload prints.
func (r *report) addFailFrac() {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.add("fail_frac", frac, "1", int(r.attempted), fmt.Sprintf("%d of %d failed or wrong", r.failed, r.attempted))
}

// cpuTime returns this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns this process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssWindows records the peak resident set of each window of a phase:
// every tick reads VmHWM and resets it through /proc/self/clear_refs,
// so a window's peak excludes everything before it. The median window
// peak is the phase's steady peak; one collection that the host delays
// raises a single window, not the figure.
type rssWindows struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func watchRSS(every time.Duration) (*rssWindows, error) {
	if err := resetHWM(); err != nil {
		return nil, err
	}
	w := &rssWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			mb, err := hwmMB()
			if err == nil {
				err = resetHWM()
			}
			if err != nil {
				w.err = err
				return
			}
			w.peaks = append(w.peaks, mb)
		}
	}()
	return w, nil
}

// finish stops the ticker and returns the completed windows' peaks.
func (w *rssWindows) finish() ([]float64, error) {
	close(w.stop)
	<-w.done
	if w.err == nil && len(w.peaks) == 0 {
		w.err = fmt.Errorf("peak RSS: the phase ended before its first window")
	}
	return w.peaks, w.err
}

func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// hwmMB reads this process's VmHWM in MiB.
func hwmMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gcDelta is the collector's work between two MemStats readings.
type gcDelta struct {
	cycles          uint32
	pause           time.Duration
	mallocs, tbytes uint64
}

func readGC() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func gcBetween(a, b runtime.MemStats) gcDelta {
	return gcDelta{
		cycles:  b.NumGC - a.NumGC,
		pause:   time.Duration(b.PauseTotalNs - a.PauseTotalNs),
		mallocs: b.Mallocs - a.Mallocs,
		tbytes:  b.TotalAlloc - a.TotalAlloc,
	}
}

// addGC adds the runtime rows for a phase that completed queries.
func (r *report) addGC(g gcDelta, queries int) {
	r.add("gc.cycles_per_1k_queries", float64(g.cycles)*1000/float64(max(queries, 1)), "count", queries, "")
	r.add("gc.pause_ms", ms(g.pause), "ms", int(g.cycles), "total stop-the-world pause in the untraced phase")
}
