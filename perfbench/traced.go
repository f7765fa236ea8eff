package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// tracedReps is how many times the traced run repeats each offline pass;
// per-layer times are medians over the repetitions.
const tracedReps = 3

// coreLayers are the offline layers whose self times add up against the
// serial end-to-end time.
var coreLayers = []string{
	"core.read", "core.parse.container", "core.parse.daemon", "core.correlate",
	"core.decompose", "core.report", "core.render.json",
}

// tracedRun measures per-layer metrics. Each repetition mines the tree
// three ways, all serial: core.MineDir untraced (the end-to-end path the
// layers are attributed against), the staged layer-by-layer path
// untraced, and the staged path with spans. The live phase runs its
// catch-up untraced once, then catch-up and tail traced; the tail's lag
// and generator-lateness p99s are reported here, unbounded. Spans are
// written as a Chrome trace when the run ends.
func tracedRun(cfg config, in *inputs, r *replay, o *outcome) error {
	rec := newRecorder(fmt.Sprintf("perfbench %s seed=%d %s", cfg.w.name, cfg.seed, time.Now().UTC().Format(time.RFC3339Nano)))
	var serial, stagedPlain, stagedTraced []float64
	layerSelf := map[string][]float64{}
	var layerSum []float64
	var c stagedCounts
	for rep := 0; rep < tracedReps; rep++ {
		m, err := mine(in.dir, 1)
		if err != nil {
			return fmt.Errorf("mining: %w", err)
		}
		o.check("offline mine (workers=1)", m.digest, in.offline.ref)
		serial = append(serial, m.wall.Seconds())

		start := time.Now()
		plain, err := stagedMine(in.dir, nil, 0)
		if err != nil {
			return fmt.Errorf("staged mining: %w", err)
		}
		stagedPlain = append(stagedPlain, time.Since(start).Seconds())
		o.check("staged mine", plain.digest, in.offline.ref)

		from := rec.mark()
		start = time.Now()
		c, err = stagedMine(in.dir, rec, 0)
		if err != nil {
			return fmt.Errorf("traced staged mining: %w", err)
		}
		stagedTraced = append(stagedTraced, time.Since(start).Seconds())
		o.check("traced staged mine", c.digest, in.offline.ref)
		self := rec.selfTimes(from, rec.mark())
		sum := 0.0
		for _, l := range coreLayers {
			layerSelf[l] = append(layerSelf[l], self[l].Seconds())
			sum += self[l].Seconds()
		}
		layerSum = append(layerSum, sum)
	}
	for _, l := range coreLayers {
		o.add(l+".s", median(layerSelf[l]), "s", describe(layerSelf[l]))
	}
	o.add("core.unattributed.s", median(serial)-median(layerSum), "s",
		fmt.Sprintf("(MineDir serial %.4g s minus summed layer self times %.4g s)", median(serial), median(layerSum)))
	o.add("core.read.files", float64(c.readFiles), "count", "")
	o.add("core.read.bytes", float64(c.readBytes), "B", "")
	o.add("core.parse.container.files", float64(c.contFiles), "count", "")
	o.add("core.parse.container.lines", float64(c.contLines), "count", "")
	o.add("core.parse.container.alloc_bytes_per_file", ratio(float64(c.contAlloc), c.contFiles), "B/file", "")
	o.add("core.parse.daemon.lines", float64(c.daemonLines), "count", "")
	o.add("core.parse.daemon.events", float64(c.daemonEvents), "count", "")
	o.add("core.parse.daemon.match_ratio", ratio(float64(c.daemonEvents), c.daemonLines), "ratio", "(event-bearing lines over lines)")
	o.add("core.parse.daemon.allocs_per_line", ratio(float64(c.daemonMallocs), c.daemonLines), "allocs/line", "")
	o.add("core.correlate.events", float64(c.corrEvents), "count", "")
	o.add("core.correlate.apps", float64(c.corrApps), "count", "")
	o.add("core.decompose.apps", float64(c.decompApps), "count", "")
	o.add("core.render.json.bytes", float64(c.jsonBytes), "B", "")

	runtime.GC()
	plainCatchup := runLive(r, in.live.ref, 0, nil)
	plainCatchup.engine.Close()
	o.op(true)

	_, tailFor := cfg.phases()
	runtime.GC()
	from := rec.mark()
	lr := runLive(r, in.live.ref, tailFor, rec)
	lr.engine.Close()
	to := rec.mark()
	o.liveOps(lr)
	self := rec.selfTimes(from, to)
	for _, l := range []string{"live.feed", "live.quiesce", "live.hook", "live.aggregate_read", "live.explain", "live.evict"} {
		o.add(l+".s", self[l].Seconds(), "s", describe(seconds(rec.durations(l, from, to))))
	}
	lag, late := millis(lr.lag), millis(lr.late)
	o.add("lag_p99_ms", quantile(lag, 0.99), "ms", describe(lag))
	o.add("gen_late_p99_ms", quantile(late, 0.99), "ms", describe(late))
	q := millis(lr.quiesce)
	o.add("live.quiesce.p99_ms", quantile(q, 0.99), "ms", describe(q))
	queueMax := 0
	for _, n := range lr.queue {
		queueMax = max(queueMax, n)
	}
	o.add("live.shard.queue_max", float64(queueMax), "count", "(over the tail's polls, right after feeding)")
	o.add("live.feed.lines", float64(lr.lines), "count", "")
	o.add("live.feed.events", float64(lr.events), "count", "")
	o.add("live.hook.apps", float64(lr.hookApps), "count", "")

	traced := median(stagedTraced) + lr.catchup.Seconds()
	plain := median(stagedPlain) + plainCatchup.catchup.Seconds()
	o.add("trace.overhead", traced/plain, "ratio",
		fmt.Sprintf("(staged mine + catch-up: traced %.4g s over untraced %.4g s)", traced, plain))

	path := filepath.Join(cfg.workdir, "trace-"+cfg.w.name+".json")
	if err := rec.writeChromeTrace(path); err != nil {
		return fmt.Errorf("writing the span trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "spans: %d written to %s\n", rec.mark(), path)
	return nil
}

func ratio(a float64, b int) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}
