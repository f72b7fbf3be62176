package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/reissue"
)

// figJob is one experiments job tagged with the figure it belongs to.
type figJob struct {
	tag string
	job *experiments.Job
}

// figureJobs builds every job reissue-figures -fig all selects, in its
// order, through the exported constructors.
func figureJobs(sc experiments.Scale) []figJob {
	var js []figJob
	add := func(tag string, j *experiments.Job) { js = append(js, figJob{tag, j}) }
	add("fig2a", experiments.Figure2aJob(sc))
	add("fig2b", experiments.Figure2bJob(sc))
	for _, k := range []experiments.WorkloadKind{experiments.Independent, experiments.CorrelatedWL, experiments.Queueing} {
		add("fig3", experiments.Figure3Job(k, sc))
	}
	add("fig4", experiments.Figure4Job(sc))
	add("fig5a", experiments.Figure5aJob(sc))
	add("fig5b", experiments.Figure5bJob(sc))
	add("fig5c", experiments.Figure5cJob(sc))
	add("fig6", experiments.Figure6Job(stats.NewLogNormal(1, 1), "LogNormal(1,1)", sc))
	add("fig6", experiments.Figure6Job(stats.NewExponential(0.1), "Exp(0.1)", sc))
	for _, id := range []string{"7a", "7b", "7c"} {
		for _, kind := range []experiments.SystemKind{experiments.Redis, experiments.Lucene} {
			switch id {
			case "7a":
				add("fig7a", experiments.Figure7aJob(kind, sc))
			case "7b":
				add("fig7b", experiments.Figure7bJob(kind, sc))
			case "7c":
				add("fig7c", experiments.Figure7cJob(kind, sc))
			}
		}
	}
	add("fig8", experiments.Figure8Job(sc))
	add("fig9", experiments.Figure9Job())
	add("x1", experiments.ExtensionOnlineTrackingJob(sc))
	add("x2", experiments.ExtensionCancellationJob(sc))
	add("x3", experiments.ExtensionBurstinessJob(sc))
	add("x4", experiments.ExtensionFanOutJob(sc))
	return js
}

// figureTags lists the per-job metric tags in figure order.
var figureTags = []string{"fig2a", "fig2b", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig6",
	"fig7a", "fig7b", "fig7c", "fig8", "fig9", "x1", "x2", "x3", "x4"}

// digestTable hashes a table at full float64 precision, byte for byte
// the way internal/experiments' TestFigureGoldens does, so a digest
// can be compared with the goldens it records.
func digestTable(t *experiments.Table) string {
	h := sha256.New()
	fmt.Fprintln(h, t.ID)
	fmt.Fprintln(h, strings.Join(t.Columns, ","))
	for _, row := range t.Rows {
		for i, v := range row {
			if i > 0 {
				h.Write([]byte{','})
			}
			h.Write([]byte(strconv.FormatFloat(v, 'g', -1, 64)))
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenScale is the scale the figure goldens were recorded at.
var goldenScale = experiments.Scale{Queries: 2000, AdaptiveTrials: 3, Seed: 0x0511}

const goldensPath = "internal/experiments/testdata/figure_goldens.txt"

// referenceDigests holds this benchmark's recorded digest of every
// table at experiments.TestScale, the scale the figures workload runs.
//
//go:embed figures_reference.txt
var referenceDigests string

// parseDigests reads "<table id> <sha256>" lines; '#' starts a comment.
func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, h, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("malformed digest line %q", line)
		}
		out[id] = h
	}
	return out, nil
}

// expectedDigests returns the digests tables at scale sc must match:
// the figure goldens where sc is their scale, this benchmark's
// recorded reference at TestScale.
func expectedDigests(sc experiments.Scale, goldens string) (map[string]string, error) {
	sc.Workers, sc.Progress = 0, nil
	switch sc {
	case goldenScale:
		b, err := os.ReadFile(goldens)
		if err != nil {
			return nil, fmt.Errorf("reading figure goldens: %w", err)
		}
		return parseDigests(string(b))
	case experiments.TestScale():
		return parseDigests(referenceDigests)
	}
	return nil, fmt.Errorf("no recorded digests for scale %+v", sc)
}

// checkDigests compares every produced table with its expected digest
// and returns one message per mismatch or unknown table.
func checkDigests(got, want map[string]string) []string {
	var bad []string
	for id, h := range got {
		w, ok := want[id]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("table %s has no recorded digest", id))
		case w != h:
			bad = append(bad, fmt.Sprintf("table %s digest %.12s, want %.12s", id, h, w))
		}
	}
	sort.Strings(bad)
	return bad
}

// childResult is what a figures child process reports on its last
// stdout line.
type childResult struct {
	WallNS    int64             `json:"wall_ns"` // the RunJobs call
	CPUNS     int64             `json:"cpu_ns"`  // process CPU during RunJobs
	Workers   int               `json:"workers"`
	Digests   map[string]string `json:"digests"`
	GCCycles  uint32            `json:"gc_cycles"`
	GCPauseNS uint64            `json:"gc_pause_ns"`
	Points    []childPoint      `json:"points,omitempty"`
}

// childPoint is one traced sweep.Point.Run, times in ns since the
// RunJobs call started.
type childPoint struct {
	Tag   string `json:"tag"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// figuresChild is the fresh process a cold regeneration runs in. It
// prints "ready" once the jobs are built — the end of its set-up —
// then regenerates every table and prints a childResult. Mode "setup"
// stops at ready; "regen-traced" times every sweep point; "record"
// prints only the reference digest file.
func figuresChild(mode string, w io.Writer) error {
	sc := experiments.TestScale()
	sc.Workers = runtime.NumCPU()
	jobs := figureJobs(sc)
	var (
		mu     sync.Mutex
		points []childPoint
		epoch  time.Time
	)
	switch mode {
	case "setup", "regen", "record":
	case "regen-traced":
		for _, fj := range jobs {
			for k := range fj.job.Points {
				p := &fj.job.Points[k]
				run, tag := p.Run, fj.tag
				p.Run = func(env *sweep.Env) error {
					s := time.Since(epoch)
					err := run(env)
					e := time.Since(epoch)
					mu.Lock()
					points = append(points, childPoint{tag, int64(s), int64(e)})
					mu.Unlock()
					return err
				}
			}
		}
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	if mode != "record" {
		fmt.Fprintln(w, "ready")
	}
	if mode == "setup" {
		return nil
	}
	all := make([]*experiments.Job, len(jobs))
	for i, fj := range jobs {
		all[i] = fj.job
	}
	gc0, cpu0 := readGC(), cpuTime()
	epoch = time.Now()
	out, err := experiments.RunJobs(sc, all...)
	wall := time.Since(epoch)
	cpu, gc1 := cpuTime()-cpu0, readGC()
	if err != nil {
		return err
	}
	digests := map[string]string{}
	var ids []string
	for _, ts := range out {
		for _, t := range ts {
			if _, dup := digests[t.ID]; dup {
				return fmt.Errorf("duplicate table id %q", t.ID)
			}
			digests[t.ID] = digestTable(t)
			ids = append(ids, t.ID)
		}
	}
	if mode == "record" {
		fmt.Fprintf(w, "# Digest of every figures-workload table at experiments.TestScale.\n"+
			"# Record again, only for a change meant to alter figure output, with:\n"+
			"#   bash perfbench/run.sh --child record > perfbench/figures_reference.txt\n")
		for _, id := range ids {
			fmt.Fprintf(w, "%s %s\n", id, digests[id])
		}
		return nil
	}
	g := gcBetween(gc0, gc1)
	return json.NewEncoder(w).Encode(childResult{
		WallNS: int64(wall), CPUNS: int64(cpu), Workers: sc.Workers, Digests: digests,
		GCCycles: g.cycles, GCPauseNS: uint64(g.pause), Points: points,
	})
}

// childRun is one figures child as its parent saw it.
type childRun struct {
	setup  time.Duration // start until the child printed ready
	wall   time.Duration // start until the child exited
	cpu    time.Duration // the child's user+system CPU
	rssMB  float64       // the child's peak resident set
	result childResult
}

// childTimeout bounds one child so a hung regeneration cannot outlive
// the run's time limit.
const childTimeout = 150 * time.Second

func spawnChild(mode string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--child", mode)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &childRun{}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting figures child: %w", err)
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var last string
	for sc.Scan() {
		if line := sc.Text(); line == "ready" && c.setup == 0 {
			c.setup = time.Since(t0)
		} else {
			last = line
		}
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("figures child %s: %w", mode, err)
	}
	c.wall = time.Since(t0)
	if scanErr != nil {
		return nil, fmt.Errorf("reading figures child output: %w", scanErr)
	}
	if c.setup == 0 {
		return nil, fmt.Errorf("figures child %s never became ready", mode)
	}
	c.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024
	}
	if mode != "setup" {
		if err := json.Unmarshal([]byte(last), &c.result); err != nil {
			return nil, fmt.Errorf("parsing figures child result: %w", err)
		}
	}
	return c, nil
}

// figureSetups is how many extra set-up-only children a run starts,
// so setup_s is a median over enough samples.
const figureSetups = 21

func runFigures(o options) (*report, error) {
	want, err := expectedDigests(experiments.TestScale(), goldensPath)
	if err != nil {
		return nil, err
	}
	r := newReport()
	if o.traced {
		return r, figuresTraced(r, want)
	}
	// Cold regenerations until the next would overrun the measured
	// time by more than a tenth; at least two, so a host stall during
	// one does not set the run's median alone.
	var regens []*childRun
	start := time.Now()
	for {
		c, err := spawnChild("regen")
		if err != nil {
			return nil, err
		}
		regens = append(regens, c)
		if len(regens) >= 2 && time.Since(start)+c.wall > o.seconds*11/10 {
			break
		}
	}
	var setups, walls, cpus, rss []float64
	for _, c := range regens {
		setups = append(setups, c.setup.Seconds())
		walls = append(walls, c.wall.Seconds())
		cpus = append(cpus, us(c.cpu))
		rss = append(rss, c.rssMB)
		checkRegen(r, c, want)
	}
	for i := 0; i < figureSetups; i++ {
		c, err := spawnChild("setup")
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
	}
	wd := newDist(walls)
	med, n := wd.q(0.5), len(regens)
	r.add("figures_s", med, "s", n, "median cold regeneration, process start to exit")
	r.add("figures_max_s", wd.max(), "s", n, "slowest cold regeneration")
	r.add("setup_s", median(setups), "s", len(setups), "process start until the jobs are built")
	r.add("p50_ms", med*1000, "ms", n, "median regeneration")
	r.add("p99_ms", med*1000, "ms", n, "no percentile above the median is supported by a few regenerations: the median")
	r.add("cpu_us_per_query", median(cpus), "us", n, "median child user+sys CPU per regeneration")
	r.add("qps", 1/med, "1/s", n, "regenerations per second, from the median")
	r.add("peak_rss_mb", median(rss), "MB", n, "median of the children's peak RSS")
	r.addFailFrac()
	return r, nil
}

// checkRegen counts one regeneration's tables as attempted and each
// wrong or missing one as failed.
func checkRegen(r *report, c *childRun, want map[string]string) {
	bad := checkDigests(c.result.Digests, want)
	for id := range want {
		if _, ok := c.result.Digests[id]; !ok {
			bad = append(bad, fmt.Sprintf("table %s was not regenerated", id))
		}
	}
	r.attempted += int64(len(want))
	r.failed += int64(len(bad))
	for _, b := range bad {
		r.fail("%s", b)
	}
}

// figuresTraced is the per-layer run: one untraced and one traced cold
// regeneration (their difference is the tracing overhead), then the
// layers the figures run through, each timed on its own in this
// process.
func figuresTraced(r *report, want map[string]string) error {
	plain, err := spawnChild("regen")
	if err != nil {
		return err
	}
	traced, err := spawnChild("regen-traced")
	if err != nil {
		return err
	}
	checkRegen(r, plain, want)
	checkRegen(r, traced, want)

	res := traced.result
	perTag := map[string]float64{}
	maxPoint := 0.0
	spans := []span{{start: 0, end: res.WallNS, parent: -1, layer: layerRequest}}
	for _, p := range res.Points {
		d := time.Duration(p.End - p.Start).Seconds()
		perTag[p.Tag] += d
		maxPoint = max(maxPoint, d)
		spans = append(spans, span{start: p.Start, end: p.End, parent: 0, layer: layerExperiments})
	}
	wall := time.Duration(res.WallNS)
	r.add("sweep.points", float64(len(res.Points)), "count", len(res.Points), "")
	r.add("sweep.max_point_s", maxPoint, "s", len(res.Points), "")
	r.add("sweep.cpu_util", float64(res.CPUNS)/(float64(res.WallNS)*float64(res.Workers)), "1", 1,
		fmt.Sprintf("CPU / (wall x %d workers)", res.Workers))
	for _, tag := range figureTags {
		r.add("experiments."+tag+"_s", perTag[tag], "s", 1, "summed point time")
	}
	pr := plain.result
	r.addGC(gcDelta{cycles: pr.GCCycles, pause: time.Duration(pr.GCPauseNS)}, len(res.Points))

	if err := measureSimLayers(r); err != nil {
		return err
	}
	gen, _ := r.lookup("kvstore.gen_s")
	sgen, _ := r.lookup("searchengine.gen_s")
	var acc [numLayers]int64
	newTree(spans).critical(0, &acc)
	over := time.Duration(res.WallNS - pr.WallNS)
	r.ledger = append(r.ledger, fmt.Sprintf(
		"RunJobs wall %.3f s = experiments %.3f s on the blocking chain of sweep points (of which trace generation, timed alone here: kvstore %.3f s + searchengine %.3f s) + remainder %.3f s (pool dispatch, job merge); tracing overhead %+.3f s (%+.1f%%, traced %.3f s vs untraced %.3f s)",
		wall.Seconds(), time.Duration(acc[layerExperiments]).Seconds(), gen.value, sgen.value, time.Duration(acc[layerRequest]).Seconds(),
		over.Seconds(), 100*float64(over)/float64(pr.WallNS), wall.Seconds(), time.Duration(pr.WallNS).Seconds()))
	r.add("trace.overhead_frac", float64(over)/float64(pr.WallNS), "1", 1, "traced minus untraced RunJobs wall, over untraced")
	return nil
}

// measureSimLayers times, in this process, the simulator-side layers
// the figures run through: trace generation with the figures' configs,
// one cluster run, the optimizer on its log, and the engine and
// scheduler cores.
func measureSimLayers(r *report) error {
	t0 := time.Now()
	if _, err := experiments.RedisServiceTimes(); err != nil {
		return err
	}
	r.add("kvstore.gen_s", time.Since(t0).Seconds(), "s", 1, "GenerateWorkload, figures config")
	t0 = time.Now()
	if _, err := experiments.LuceneServiceTimes(); err != nil {
		return err
	}
	r.add("searchengine.gen_s", time.Since(t0).Seconds(), "s", 1, "GenerateWorkload, figures config")

	sc := experiments.TestScale()
	var perQuery, optimize []float64
	var log []float64
	for k := 0; k < 3; k++ {
		c, err := experiments.NewSystemCluster(experiments.Redis, 0.40, sc)
		if err != nil {
			return err
		}
		cfg := c.Config()
		t0 := time.Now()
		res := c.Run(reissue.None{})
		perQuery = append(perQuery, us(time.Since(t0))/float64(cfg.Queries+cfg.Warmup))
		log = res.Primary
	}
	r.add("cluster.us_per_query", median(perQuery), "us", len(perQuery), "Run(None) on the Redis system cluster at 40% load")
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		if _, _, err := reissue.ComputeOptimalSingleR(log, nil, 0.99, 0.05); err != nil {
			return err
		}
		optimize = append(optimize, ms(time.Since(t0)))
	}
	r.add("reissue.optimize_ms", median(optimize), "ms", len(optimize),
		fmt.Sprintf("ComputeOptimalSingleR on %d logged responses", len(log)))
	return measureCores(r)
}
