package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/slo"
)

// liveEngine is the part of core.Stream / core.ShardedStream that
// `sdchecker -serve` drives.
type liveEngine interface {
	Feed(source, rawLine string) bool
	Quiesce()
	Close()
	Report() *core.Report
	App(id ids.AppID) *core.AppTrace
	EventCount() int
	LastEventMS() int64
	EvictCompleted(keep int) int
	EvictOldest(max int) int
	ShardStats() []core.ShardStat
	OnComplete(fn func(*core.AppTrace))
}

// The -serve defaults: retention of completed apps and the hard app
// bound, applied after every poll.
const (
	serveRetain  = 4096
	serveMaxApps = 16384
)

// newEngine picks the engine as `sdchecker -serve -workers N` does.
func newEngine(workers int) liveEngine {
	if workers <= 1 {
		return core.NewStream()
	}
	return core.NewShardedStream(workers)
}

// liveResult is one live phase: a catch-up poll over the first half of
// the tree, then an open-loop tail over the rest.
type liveResult struct {
	catchup  time.Duration
	lag      []time.Duration // per tick: due instant to aggregate readable
	late     []time.Duration // per tick: how late the generator's tick started
	quiesce  []time.Duration // per tick: waiting for the shard workers
	pending  []int           // per tick: lines due but not yet fed at tick start
	queue    []int           // per tick: shard queue depth right after feeding
	backlog  bool
	lines    int
	events   int
	hookApps int
	alloc    uint64
	digest   string
	ref      string // the digest the final report must have
	engine   liveEngine
	report   *core.Report
}

// live is the -serve composition: an ingest engine whose completion hook
// feeds an slo.Engine, polled as pollOnce does.
type live struct {
	eng     liveEngine
	mu      sync.Mutex // guards slo, as the server's obsMu does
	slo     *slo.Engine
	hooks   int
	rec     *recorder
	current atomic.Int64 // span the hook's spans hang off
}

func newLive(rec *recorder) *live {
	l := &live{eng: newEngine(runtime.GOMAXPROCS(0)), slo: slo.NewEngine(nil), rec: rec}
	l.eng.OnComplete(func(a *core.AppTrace) {
		start := time.Now()
		l.mu.Lock()
		l.slo.ObserveApp(a)
		l.hooks++
		l.mu.Unlock()
		if l.rec != nil {
			l.rec.add(int(l.current.Load()), "live.hook", start, time.Now(), true)
		}
	})
	return l
}

// poll is one serve poll after the lines were fed: wait for the workers,
// advance the SLO clock, read the /aggregate rows (and the /explain
// attribution when asked), then evict. It returns how long the quiesce
// waited and when the aggregate became readable.
func (l *live) poll(parent int, explain bool) (quiesce time.Duration, readable time.Time) {
	rec := l.rec
	id := rec.begin(parent, "live.quiesce")
	q0 := time.Now()
	l.eng.Quiesce()
	quiesce = time.Since(q0)
	rec.end(id)

	id = rec.begin(parent, "live.aggregate_read")
	l.mu.Lock()
	l.slo.Advance(l.eng.LastEventMS())
	_ = l.slo.Breakdown().Rows()
	l.mu.Unlock()
	rec.end(id)

	if explain {
		id = rec.begin(parent, "live.explain")
		l.mu.Lock()
		_ = l.slo.Breakdown().Explain("total", 0.99, core.DefaultExplainCells, func(app string) (*core.AppSummary, bool) {
			if aid, err := ids.ParseAppID(app); err == nil {
				if a := l.eng.App(aid); a != nil {
					return core.SummarizeApp(a), false
				}
			}
			return nil, false
		})
		l.mu.Unlock()
		rec.end(id)
	}
	readable = time.Now()

	id = rec.begin(parent, "live.evict")
	l.eng.EvictCompleted(serveRetain)
	l.eng.EvictOldest(serveMaxApps)
	rec.end(id)
	return quiesce, readable
}

// feed hands replay lines [from, to) to the engine under one live.feed
// span.
func (l *live) feed(parent int, r *replay, from, to int) {
	id := l.rec.begin(parent, "live.feed")
	for i := from; i < to; i++ {
		l.eng.Feed(r.line(i))
	}
	l.rec.end(id)
}

func (l *live) queued() int {
	n := 0
	for _, s := range l.eng.ShardStats() {
		n += s.Queued
	}
	return n
}

// runLive runs the live phase over r: catch-up, then (when tailFor > 0)
// the open-loop tail lasting tailFor and the final report, which must
// digest to ref. The caller closes res.engine.
func runLive(r *replay, ref string, tailFor time.Duration, rec *recorder) liveResult {
	l := newLive(rec)
	res := liveResult{ref: ref}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Catch-up: a server starting over the tree as it stood at the
	// midpoint reads every file in walk order, then polls once.
	root := rec.begin(0, "live.catchup")
	l.current.Store(int64(root))
	start := time.Now()
	l.feed(root, r, 0, r.cut)
	res.lines = r.cut
	_, readable := l.poll(root, true)
	res.catchup = readable.Sub(start)
	rec.end(root)

	res.engine = l.eng
	if tailFor <= 0 {
		return res
	}
	l.tail(r, tailFor, &res)
	l.eng.Quiesce()
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.events = l.eng.EventCount()
	l.mu.Lock()
	res.hookApps = l.hooks
	l.mu.Unlock()
	res.report = l.eng.Report()
	js, err := res.report.JSON()
	if err != nil {
		res.digest = "render error: " + err.Error()
	} else {
		res.digest = digest(js)
	}
	return res
}

// tail replays the tail lines in timestamp order at a fixed rate — the
// j-th is due tailFor*j/n after the tail starts — and polls every tick.
// Each tick feeds every line due by the instant it actually started, so
// a stalled poller faces a growing batch instead of slowing the
// generator (open loop). Lag is timed from the tick's due instant, so a
// stall also counts against the ticks behind it.
func (l *live) tail(r *replay, tailFor time.Duration, res *liveResult) {
	ticks := int((tailFor + tick - 1) / tick)
	n := r.len() - r.cut
	perNS := float64(n) / float64(tailFor.Nanoseconds())
	start := time.Now()
	fed := 0
	for k := 1; k <= ticks; k++ {
		due := start.Add(time.Duration(k) * tick)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		upto := int(float64(now.Sub(start).Nanoseconds()) * perNS)
		if upto > n || k == ticks {
			upto = n
		}
		id := l.rec.begin(0, "live.tick")
		l.current.Store(int64(id))
		res.late = append(res.late, now.Sub(due))
		res.pending = append(res.pending, upto-fed)
		l.feed(id, r, r.cut+fed, r.cut+upto)
		res.lines += upto - fed
		fed = upto
		res.queue = append(res.queue, l.queued())
		q, readable := l.poll(id, k%explainEvery == 0)
		l.rec.end(id)
		res.quiesce = append(res.quiesce, q)
		res.lag = append(res.lag, readable.Sub(due))
	}
	perTick := float64(n) / float64(ticks)
	res.backlog = growing(res.pending, perTick) || growing(res.queue, perTick)
}

// growing reports a backlog: the median over the last quarter of the
// tail is more than twice the first quarter's (or one tick's worth of
// lines, if larger).
func growing(xs []int, perTick float64) bool {
	n := len(xs) / 4
	if n == 0 {
		return false
	}
	med := func(s []int) float64 {
		c := append([]int(nil), s...)
		sort.Ints(c)
		return float64(c[len(c)/2])
	}
	first, last := med(xs[:n]), med(xs[len(xs)-n:])
	if first < perTick {
		first = perTick
	}
	return last > 2*first
}
