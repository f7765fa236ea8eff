// Command perfbench is the repository's benchmark: it generates a seeded
// YARN/Spark log tree with the simulator, then drives it through the
// offline miner (`sdchecker -dir`) and the live engine (`sdchecker
// -serve`), checking every report against a reference digest.
//
//	bash perfbench/run.sh --workload live-tail --seed 3 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the same inputs through the layer-by-layer path with a span
// around every call and prints per-layer metrics. The last line of
// standard output is one JSON object: {correct, attempted, failed,
// metrics}.
//
// Every workload runs the same phases, because every end-to-end metric
// is reported on every workload; the tree's shape decides which layer
// dominates. Set-up generates the inputs three times in memory (the
// tree is then written and synced once, untimed). Offline mining runs
// MineDir at GOMAXPROCS and at one worker, alternating, for 35% of
// --seconds. The live phase times five catch-up polls on fresh engines,
// then replays the rest of the tree open-loop for 55% of --seconds.
// The self-test runs every workload at a tiny size: cd perfbench && go test .
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
)

// workload is one shape of generated input.
type workload struct {
	name      string
	executors int // executors per app
	apps      int // apps in the offline tree
	liveApps  int // apps in the live-phase tree (== apps: the same tree)
	chatter   int // mean chatter lines per daemon-log line
}

var workloads = []workload{
	{name: "offline-wide", executors: 64, apps: 200, liveApps: 8},
	{name: "offline-noisy", executors: 4, apps: 200, liveApps: 200, chatter: 48},
	{name: "live-tail", executors: 16, apps: 200, liveApps: 200},
}

// The live tail polls every tick, reads /explain on every explainEvery-th
// poll, and fails a poll whose aggregate is readable later than lagLimit
// after its due instant.
const (
	tick         = 5 * time.Millisecond
	explainEvery = 10
	lagLimit     = 250 * time.Millisecond
)

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one invocation.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	workdir string
	log     io.Writer // progress and the human-readable metric table
	// corrupt drops one vocabulary line from the tree after the
	// reference digest is taken (the self-test's gate check).
	corrupt bool
}

// metric is one reported value with its unit; detail is printed on the
// human-readable line only.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	detail string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: offline-wide, offline-noisy or live-tail")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed generates the same trees")
		secs    = flag.Float64("seconds", 25, "measured time: 35% offline mining, 55% the live tail")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		workdir = flag.String("workdir", ".bench_build/perfbench-work", "directory for generated trees and the span trace")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {offline-wide|offline-noisy|live-tail}, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *secs, trace: *trace == 1, workdir: *workdir, log: os.Stdout}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one invocation and returns its result.
func run(cfg config) (*result, error) {
	log := cfg.log
	w := cfg.w
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	trees, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(trees)
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))

	// Set-up: generate the inputs, several times; every repetition must
	// reproduce the same digests. Writing the offline tree is timed on
	// its own: creating thousands of files costs kernel time that swings
	// tenfold from run to run on the same machine, and no program work
	// can move into the benchmark's own writer.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var in *inputs
	var setup []float64
	var refs [2]string
	for rep := 0; rep < reps; rep++ {
		in = nil // let the collection below free the previous repetition
		runtime.GC()
		start := time.Now()
		got, err := generate(w, cfg.seed, cfg.corrupt)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		if rep == 0 {
			refs = [2]string{got.offline.ref, got.live.ref}
		} else if refs != [2]string{got.offline.ref, got.live.ref} {
			return nil, fmt.Errorf("set-up: generation is not deterministic for seed %d", cfg.seed)
		}
		in = got
	}
	in.dir = filepath.Join(trees, "tree")
	start := time.Now()
	if err := in.offline.write(in.dir); err != nil {
		return nil, fmt.Errorf("set-up: writing the tree: %w", err)
	}
	wrote := time.Since(start)
	// Flush the tree to disk now: the kernel's writeback of thousands of
	// new files otherwise competes for the CPUs during the measurement.
	syscall.Sync()
	fmt.Fprintf(log, "set-up: wrote the offline tree in %.3f s, synced in %.3f s\n", wrote.Seconds(), (time.Since(start) - wrote).Seconds())
	r := in.live.timeline()
	fmt.Fprintf(log, "inputs: offline tree %d files, %d lines, %d apps; live tree %d files, %d lines (%d catch-up, %d tail), %d apps\n",
		len(in.offline.files), in.offline.nLine, in.offline.apps,
		len(in.live.files), in.live.nLine, r.cut, r.len()-r.cut, in.live.apps)
	// The trees' lines are on disk and in the replay now; dropping them
	// leaves the collector nothing of the benchmark's own to scan.
	in.offline.lines, in.live.lines = nil, nil

	o := &outcome{correct: true, metrics: map[string]metric{}}
	if cfg.trace {
		err = tracedRun(cfg, in, r, o)
	} else {
		o.add("setup_s", median(setup), "s", describe(setup))
		err = measuredRun(cfg, in, r, o)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(log, "  %-36s %14.6g %-6s %s\n", n, m.Value, m.Unit, m.detail)
	}
	fmt.Fprintf(log, "ops: %d attempted, %d failed; outputs correct: %v\n", o.attempted, o.failed, o.correct)
	return &result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}, nil
}

// setupReps and catchupReps are how many times an untraced run times
// the set-up and the catch-up poll; each reports the median.
const (
	setupReps   = 3
	catchupReps = 5
)

// phases splits the measured time: 35% offline mining, 55% live tail;
// the catch-up polls take the rest (their length is set by the tree).
func (c config) phases() (offline, tail time.Duration) {
	s := float64(time.Second) * c.seconds
	return time.Duration(0.35 * s), time.Duration(0.55 * s)
}

// outcome accumulates a run's op accounting and metrics.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
}

func (o *outcome) add(name string, v float64, unit, detail string) {
	o.metrics[name] = metric{Value: v, Unit: unit, detail: detail}
}

// op counts one operation, failed unless ok.
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// check counts one output-checked operation: a digest mismatch fails the
// op and marks the run's outputs incorrect.
func (o *outcome) check(what, got, want string) {
	ok := got == want
	o.op(ok)
	if !ok {
		o.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s: report digest %.12s, reference %.12s\n", what, got, want)
	}
}

// liveOps counts the live phase's ops: the catch-up poll, the final
// report check and one op per tail poll, failed over the lag limit. A
// tail whose backlog grew fails every poll: it has no meaningful latency.
func (o *outcome) liveOps(lr liveResult) {
	o.op(true)
	o.check("live engine final report", lr.digest, lr.ref)
	for _, lag := range lr.lag {
		o.op(!lr.backlog && lag <= lagLimit)
	}
	if lr.backlog {
		fmt.Fprintf(os.Stderr, "perfbench: backlog: pending lines or shard queues grew across the tail\n")
	}
}

// heapLive returns the live heap after a full collection.
func heapLive() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// retained returns the live heap, in MB, that drop releases by clearing
// the references it holds.
func retained(drop func()) float64 {
	held := heapLive()
	drop()
	freed := heapLive()
	if held <= freed {
		return 0
	}
	return mb(held - freed)
}

// measuredRun is the untraced run: offline mining at GOMAXPROCS and at
// one worker, alternating, then the live phase: catch-up polls and the
// open-loop tail.
func measuredRun(cfg config, in *inputs, r *replay, o *outcome) error {
	budget, tailFor := cfg.phases()
	var par, ser []time.Duration
	var parAlloc []float64
	var last *core.Report
	start := time.Now()
	for pair := 0; pair < 3 || time.Since(start) < budget; pair++ {
		order := []int{0, 1}
		if pair%2 == 1 {
			order = []int{1, 0}
		}
		for _, serial := range order {
			workers := 0
			if serial == 1 {
				workers = 1
			}
			m, err := mine(in.dir, workers)
			if err != nil {
				return fmt.Errorf("mining: %w", err)
			}
			o.check(fmt.Sprintf("offline mine (workers=%d)", workers), m.digest, in.offline.ref)
			if serial == 1 {
				ser = append(ser, m.wall)
			} else {
				par = append(par, m.wall)
				parAlloc = append(parAlloc, float64(m.alloc))
			}
			last = m.report
		}
	}
	o.add("offline_s", median(seconds(par)), "s", describe(seconds(par)))
	o.add("offline_serial_s", median(seconds(ser)), "s", describe(seconds(ser)))
	// The report is dropped before the live phase, so the collector does
	// not re-mark it on every cycle while the tail is timed.
	offApps := len(last.Apps)
	offRetained := retained(func() { last = nil })

	// The catch-up runs catchupReps times on fresh engines; the last one
	// goes on into the tail.
	var catch []float64
	for rep := 1; rep < catchupReps; rep++ {
		runtime.GC()
		cr := runLive(r, in.live.ref, 0, nil)
		cr.engine.Close()
		catch = append(catch, cr.catchup.Seconds())
		o.op(true)
	}
	runtime.GC()
	lr := runLive(r, in.live.ref, tailFor, nil)
	catch = append(catch, lr.catchup.Seconds())
	o.liveOps(lr)
	o.add("catchup_s", median(catch), "s", describe(catch))
	lag, late := millis(lr.lag), millis(lr.late)
	o.add("lag_p50_ms", median(lag), "ms", describe(lag))
	// The p99s are per-layer metrics of the traced run: on a shared
	// 2-vCPU machine their run-to-run spread is several times any bound.
	fmt.Fprintf(cfg.log, "tail: lag p99 %.4g ms, generator lateness %s ms\n", quantile(lag, 0.99), describe(late))

	allocMed := median(parAlloc)
	o.add("alloc_mb", mb(uint64(allocMed)+lr.alloc), "MB",
		fmt.Sprintf("(one offline mine %.1f MB + live phase %.1f MB)", mb(uint64(allocMed)), mb(lr.alloc)))
	liveApps := len(lr.report.Apps)
	liveRetained := retained(func() {
		lr.engine.Close()
		lr.engine, lr.report = nil, nil
	})
	o.add("retained_mb", offRetained+liveRetained, "MB", fmt.Sprintf(
		"(offline report of %d apps %.1f MB + live engine and report of %d apps %.1f MB)",
		offApps, offRetained, liveApps, liveRetained))
	return nil
}
