package core

import (
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// reAppInLine finds the first application or container ID in a raw log
// line. A container ID embeds its application's (clusterTS, seq) prefix,
// so one pattern routes both forms.
var reAppInLine = regexp.MustCompile(`(?:application|container)_(\d+)_(\d+)`)

// ShardedStream is the parallel variant of Stream: Feed routes each raw
// line to one of N worker goroutines, each owning a hash-shard of
// application IDs with its own serial Stream and its own completed-app
// ClusterBreakdown sketch. Parsing — the expensive part — runs on the
// workers; each app's fold state stays shard-local because every event of an
// application lives in exactly one shard (events a line produces for a
// foreign application, possible only on adversarial input, are forwarded
// to the owning shard).
//
// All methods are safe for concurrent use. Feed is asynchronous: call
// Quiesce to wait until everything fed so far has been absorbed. Reports
// gather applications in submission order and their events by stable
// timestamp sort, so a sharded and a serial stream fed the same line
// sequence render byte-identical reports regardless of worker count.
// Traces returned by App and Apps are published and immutable (see
// Stream), so callers read them without holding any shard lock.
type ShardedStream struct {
	shards []*streamShard

	// workMu/workCond track outstanding work items (queued lines plus
	// forwarded event batches) for Quiesce. A counter with a condition
	// variable instead of a WaitGroup: Add and Wait may race freely.
	workMu   sync.Mutex
	workCond *sync.Cond
	pending  int
	closed   bool

	// hookMu serializes the user completion hook across shards and
	// guards its installation.
	hookMu sync.Mutex
	hook   func(*AppTrace)

	wg sync.WaitGroup

	pmet     *parserMetrics
	met      *streamMetrics
	forwards *metrics.Counter

	// pl, when set, receives per-batch stage timings and flight events.
	// Timing is batched: one clock read pair per grabbed batch, never per
	// line, so the unobserved hot path is untouched.
	pl *obs.Pipeline
}

// streamShard is one worker: an input queue (raw lines routed here plus
// event batches forwarded from other shards) and the shard-local state.
type streamShard struct {
	ss *ShardedStream
	i  int

	qMu    sync.Mutex
	qCond  *sync.Cond
	lines  []shardLine
	routed [][]Event
	quit   bool

	// stMu guards the shard's Stream and sketch: the worker holds it
	// while absorbing, readers hold it while snapshotting.
	stMu sync.Mutex
	st   *Stream
	bd   *ClusterBreakdown

	// processed counts work units (lines + routed batches) this worker
	// has fully absorbed — the watchdog's per-shard progress signal.
	processed atomic.Int64

	// scratch is this worker's reusable fast-matcher parser (only the
	// worker goroutine touches it); see Stream.scratch.
	scratch *Parser

	linesTotal *metrics.Counter
	depth      *metrics.Gauge   // core_shard_queue_depth{shard=i}
	batches    *metrics.Counter // core_shard_batches_total{shard=i}
}

type shardLine struct{ source, raw string }

// NewShardedStream starts workers goroutines (0 = GOMAXPROCS), each
// owning one shard. Call Close to stop them.
func NewShardedStream(workers int) *ShardedStream {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ss := &ShardedStream{shards: make([]*streamShard, workers)}
	ss.workCond = sync.NewCond(&ss.workMu)
	for i := range ss.shards {
		sh := &streamShard{ss: ss, i: i, st: NewStream(), bd: NewClusterBreakdown()}
		sh.qCond = sync.NewCond(&sh.qMu)
		sh.st.OnComplete(sh.onComplete)
		ss.shards[i] = sh
	}
	for _, sh := range ss.shards {
		ss.wg.Add(1)
		go sh.run()
	}
	return ss
}

// Workers returns the shard/worker count.
func (ss *ShardedStream) Workers() int { return len(ss.shards) }

// OnComplete registers the hook called the first time an application's
// decomposition becomes fully observable, exactly once per application
// (guaranteed by the owning shard's Stream). Calls are serialized across
// shards; the hook runs on a worker goroutine and must not call back
// into the sharded stream. Install it before feeding.
func (ss *ShardedStream) OnComplete(fn func(*AppTrace)) {
	ss.hookMu.Lock()
	ss.hook = fn
	ss.hookMu.Unlock()
}

// Instrument registers the same stream/parser metric families the serial
// Stream exposes, plus per-worker line counters
// (core_shard_lines_total{shard=i}) and the cross-shard event forwarding
// counter. Call once, before feeding; a nil registry is a no-op.
func (ss *ShardedStream) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	ss.pmet = newParserMetrics(reg)
	ss.met = newStreamMetrics(reg)
	ss.forwards = reg.Counter("core_shard_forwarded_events_total")
	for _, sh := range ss.shards {
		sh.linesTotal = reg.Counter("core_shard_lines_total", "shard", strconv.Itoa(sh.i))
		sh.depth = reg.Gauge("core_shard_queue_depth", "shard", strconv.Itoa(sh.i))
		sh.batches = reg.Counter("core_shard_batches_total", "shard", strconv.Itoa(sh.i))
	}
}

// ObservePipeline attaches the self-observability pipeline: workers
// record per-batch stage timings (parse, forward, decompose), Quiesce
// boundaries land in the flight recorder, and each shard's Stream
// reports hook fires and evictions. Attach before feeding; nil keeps
// the stream unobserved.
func (ss *ShardedStream) ObservePipeline(p *obs.Pipeline) {
	ss.pl = p
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		sh.st.ObservePipeline(p)
		sh.stMu.Unlock()
	}
}

// ShardStats samples every worker's queue depth and progress counter
// for the pipeline watchdog.
func (ss *ShardedStream) ShardStats() []ShardStat {
	out := make([]ShardStat, len(ss.shards))
	for i, sh := range ss.shards {
		sh.qMu.Lock()
		q := len(sh.lines) + len(sh.routed)
		sh.qMu.Unlock()
		out[i] = ShardStat{Queued: q, Processed: sh.processed.Load()}
	}
	return out
}

// shardOf hashes an application ID onto a shard.
func (ss *ShardedStream) shardOf(id ids.AppID) int {
	h := uint64(id.ClusterTS)*0x9e3779b97f4a7c15 + uint64(id.Seq)*0x94d049bb133111eb
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(len(ss.shards)))
}

func fnvShard(s string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return int(h % uint32(n))
}

// route picks the shard that will own a line's events: the container ID
// in the source path (container stderr), else the first application or
// container ID in the line body (daemon logs), else a hash of the
// source. On well-formed logs this is exact — every event a line
// produces belongs to the routed application, because each extraction
// regex keys off the line's first ID — so cross-shard forwarding only
// triggers on adversarial input.
func (ss *ShardedStream) route(source, raw string) *streamShard {
	if referenceMatcher() {
		if cidStr := reContainerInPath.FindString(source); cidStr != "" {
			if cid, err := ids.ParseContainerID(cidStr); err == nil {
				return ss.shards[ss.shardOf(cid.App)]
			}
		}
		if m := reAppInLine.FindStringSubmatch(raw); m != nil {
			cts, err1 := strconv.ParseInt(m[1], 10, 64)
			seq, err2 := strconv.Atoi(m[2])
			if err1 == nil && err2 == nil {
				return ss.shards[ss.shardOf(ids.AppID{ClusterTS: cts, Seq: seq})]
			}
		}
		return ss.shards[fnvShard(source, len(ss.shards))]
	}
	// The fast helpers are allocation-free, which matters here: route
	// runs on the feeding goroutine for every line.
	if cid, found, err := fastFindContainerID(source); found && err == nil {
		return ss.shards[ss.shardOf(cid.App)]
	}
	if app, ok := fastAppInLine(raw); ok {
		return ss.shards[ss.shardOf(app)]
	}
	return ss.shards[fnvShard(source, len(ss.shards))]
}

// Feed routes one raw log line to its owning shard's queue. It returns
// true when the line was accepted (false after Close). Unlike
// Stream.Feed the parse happens asynchronously, so acceptance does not
// imply the line produced events — compare EventCount after Quiesce for
// that.
func (ss *ShardedStream) Feed(source, rawLine string) bool {
	ss.workMu.Lock()
	if ss.closed {
		ss.workMu.Unlock()
		return false
	}
	ss.pending++
	ss.workMu.Unlock()
	if ss.met != nil {
		ss.met.lines.Inc()
	}
	sh := ss.route(source, rawLine)
	sh.qMu.Lock()
	sh.lines = append(sh.lines, shardLine{source, rawLine})
	sh.depth.Set(int64(len(sh.lines) + len(sh.routed)))
	sh.qCond.Signal()
	sh.qMu.Unlock()
	return true
}

// forward hands events parsed on shard `from` to the shard owning their
// application. The pending count is raised before the originating line's
// unit is released, so Quiesce cannot observe zero while a forwarded
// batch is still in flight.
func (ss *ShardedStream) forward(from, j int, evs []Event) {
	ss.workMu.Lock()
	ss.pending++
	ss.workMu.Unlock()
	if ss.forwards != nil {
		ss.forwards.Add(int64(len(evs)))
	}
	ss.pl.RecordForward(from, j, len(evs))
	sh := ss.shards[j]
	sh.qMu.Lock()
	sh.routed = append(sh.routed, evs)
	sh.depth.Set(int64(len(sh.lines) + len(sh.routed)))
	sh.qCond.Signal()
	sh.qMu.Unlock()
}

func (ss *ShardedStream) done() {
	ss.workMu.Lock()
	ss.pending--
	if ss.pending == 0 {
		ss.workCond.Broadcast()
	}
	ss.workMu.Unlock()
}

// Quiesce blocks until every line accepted so far — and every event
// batch forwarded between shards — has been parsed and absorbed, then
// refreshes the app gauges.
func (ss *ShardedStream) Quiesce() {
	ss.workMu.Lock()
	entering := ss.pending
	ss.workMu.Unlock()
	ss.pl.RecordQuiesce(true, entering)
	ss.workMu.Lock()
	for ss.pending > 0 {
		ss.workCond.Wait()
	}
	ss.workMu.Unlock()
	ss.pl.RecordQuiesce(false, 0)
	ss.updateAppGauges()
}

// Close drains pending work and stops the workers. The read side
// (Report, Apps, Breakdown, ...) stays usable afterwards; Feed returns
// false. Stop concurrent feeders first: lines racing Close may be
// rejected.
func (ss *ShardedStream) Close() {
	ss.workMu.Lock()
	ss.closed = true
	for ss.pending > 0 {
		ss.workCond.Wait()
	}
	ss.workMu.Unlock()
	for _, sh := range ss.shards {
		sh.qMu.Lock()
		sh.quit = true
		sh.qCond.Broadcast()
		sh.qMu.Unlock()
	}
	ss.wg.Wait()
}

func (sh *streamShard) run() {
	defer sh.ss.wg.Done()
	for {
		sh.qMu.Lock()
		for len(sh.lines) == 0 && len(sh.routed) == 0 && !sh.quit {
			sh.qCond.Wait()
		}
		if len(sh.lines) == 0 && len(sh.routed) == 0 {
			sh.qMu.Unlock()
			return // quit and drained
		}
		lines, routed := sh.lines, sh.routed
		sh.lines, sh.routed = nil, nil
		sh.depth.Set(0)
		sh.qMu.Unlock()

		if pl := sh.ss.pl; pl != nil {
			sh.runObserved(pl, lines, routed)
		} else {
			for _, evs := range routed {
				sh.absorb(evs)
				sh.ss.done()
			}
			for _, ln := range lines {
				sh.process(ln)
				sh.ss.done()
			}
		}
		sh.processed.Add(int64(len(lines) + len(routed)))
		sh.batches.Inc()
	}
}

// runObserved is the instrumented batch path: the same work as the
// loops in run, but bracketed by one clock read per phase — forwarded
// batches, then the whole line batch's parse, then its absorb — so
// stage timing costs O(1) per batch, not O(lines).
func (sh *streamShard) runObserved(pl *obs.Pipeline, lines []shardLine, routed [][]Event) {
	if len(routed) > 0 {
		t := pl.Begin()
		n := 0
		for _, evs := range routed {
			n += len(evs)
			sh.absorb(evs)
			sh.ss.done()
		}
		pl.StageBatch(obs.StageForward, sh.i, t, n)
	}
	if len(lines) == 0 {
		return
	}
	t := pl.Begin()
	batch := make([][]Event, len(lines))
	for i, ln := range lines {
		if sh.linesTotal != nil {
			sh.linesTotal.Inc()
		}
		batch[i] = sh.parseLineCopy(ln.source, ln.raw)
	}
	mid := pl.Begin()
	for i := range lines {
		sh.routeAndAbsorb(batch[i])
		sh.ss.done()
	}
	// Parsing and absorbing (the fold, plus decomposing apps published on
	// completion) share the middle clock read; splitting the phases costs
	// no extra reads.
	pl.StageSpan(obs.StageParse, sh.i, t, mid, len(lines))
	pl.StageBatch(obs.StageDecompose, sh.i, mid, len(lines))
}

// onComplete is installed on every shard's Stream: it folds the
// completed app into the shard's sketch (the worker holds stMu here) and
// relays to the user hook, serialized across shards by hookMu.
func (sh *streamShard) onComplete(a *AppTrace) {
	sh.bd.Observe(a)
	sh.ss.hookMu.Lock()
	if h := sh.ss.hook; h != nil {
		h(a)
	}
	sh.ss.hookMu.Unlock()
}

// process parses one line (statelessly, off any lock) and absorbs its
// events into the shard's Stream, forwarding any events whose
// application hashes elsewhere.
func (sh *streamShard) process(ln shardLine) {
	if sh.linesTotal != nil {
		sh.linesTotal.Inc()
	}
	sh.routeAndAbsorb(sh.parseLineScratch(ln.source, ln.raw))
}

// parseLineScratch parses one line into the worker's reusable scratch
// parser and returns its scratch-backed events, valid until the next
// call (routeAndAbsorb never retains the slice: forwards copy, and the
// owning Stream folds event values). The regexp reference path keeps
// the historical throwaway-parser-per-line behavior.
func (sh *streamShard) parseLineScratch(source, raw string) []Event {
	if referenceMatcher() {
		return parseLineEvents(sh.ss.pmet, source, raw)
	}
	if sh.scratch == nil {
		sh.scratch = NewParser()
	}
	return parseScratch(sh.scratch, sh.ss.pmet, source, raw)
}

// parseLineCopy is parseLineScratch for batch parsing (runObserved
// parses a whole batch before absorbing any of it): the returned events
// survive subsequent scratch reuse.
func (sh *streamShard) parseLineCopy(source, raw string) []Event {
	evs := sh.parseLineScratch(source, raw)
	if len(evs) == 0 {
		return nil
	}
	return append([]Event(nil), evs...)
}

// routeAndAbsorb splits one line's events into shard-local and foreign,
// forwards the foreign batches, absorbs the rest, and maintains the
// matched/dropped line counters.
func (sh *streamShard) routeAndAbsorb(evs []Event) {
	matched := false
	if len(evs) > 0 {
		own := evs[:0]
		var foreign map[int][]Event
		for _, e := range evs {
			j := sh.ss.shardOf(e.App)
			if j == sh.i {
				own = append(own, e)
				continue
			}
			if foreign == nil {
				foreign = make(map[int][]Event)
			}
			foreign[j] = append(foreign[j], e)
		}
		for j, f := range foreign {
			sh.ss.forward(sh.i, j, f)
			matched = true
		}
		if sh.absorb(own) > 0 {
			matched = true
		}
	}
	if m := sh.ss.met; m != nil {
		if matched {
			m.matched.Inc()
		} else {
			m.dropped.Inc()
		}
	}
}

func (sh *streamShard) absorb(evs []Event) int {
	if len(evs) == 0 {
		return 0
	}
	sh.stMu.Lock()
	n := sh.st.absorbRouted(evs)
	sh.stMu.Unlock()
	if n > 0 && sh.ss.met != nil {
		sh.ss.met.events.Add(int64(n))
	}
	return n
}

// parseLineEvents parses one raw line exactly like Stream.feed, but
// statelessly: dedup that depends on stream state (FIRST_LOG,
// FIRST_TASK) is applied later by the owning shard's absorbRouted.
func parseLineEvents(pm *parserMetrics, source, rawLine string) []Event {
	p := NewParser()
	p.met = pm
	if cidStr := reContainerInPath.FindString(source); cidStr != "" {
		cid, err := ids.ParseContainerID(cidStr)
		if err != nil {
			return nil
		}
		if err := p.parseContainerLog(source, cid, singleLine(rawLine)); err != nil {
			return nil
		}
		return p.Events()
	}
	if err := p.ParseReader(source, singleLine(rawLine)); err != nil {
		return nil
	}
	return p.Events()
}

// EventCount returns the number of scheduling events absorbed so far
// across all shards.
func (ss *ShardedStream) EventCount() int {
	n := 0
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		n += sh.st.EventCount()
		sh.stMu.Unlock()
	}
	return n
}

// LastEventMS returns the latest event timestamp absorbed by any shard.
func (ss *ShardedStream) LastEventMS() int64 {
	var last int64
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		if ms := sh.st.LastEventMS(); ms > last {
			last = ms
		}
		sh.stMu.Unlock()
	}
	return last
}

// App returns the live trace for one application, or nil.
func (ss *ShardedStream) App(id ids.AppID) *AppTrace {
	sh := ss.shards[ss.shardOf(id)]
	sh.stMu.Lock()
	defer sh.stMu.Unlock()
	return sh.st.App(id)
}

// Complete reports whether an application's decomposition is fully
// observable (see Stream.Complete).
func (ss *ShardedStream) Complete(id ids.AppID) bool {
	sh := ss.shards[ss.shardOf(id)]
	sh.stMu.Lock()
	defer sh.stMu.Unlock()
	return sh.st.Complete(id)
}

// Apps returns the live traces across all shards ordered by submission
// sequence.
func (ss *ShardedStream) Apps() []*AppTrace {
	var out []*AppTrace
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		out = append(out, sh.st.Apps()...)
		sh.stMu.Unlock()
	}
	sortTracesBySeq(out)
	return out
}

// Report snapshots the current state into a full report, gathering
// events exactly as Stream.Report does, so a sharded and a serial stream
// fed the same lines render byte-identical reports. Published traces
// are immutable, so the gathering needs no shard lock. Quiesce first if
// every fed line must be included.
func (ss *ShardedStream) Report() *Report {
	apps := ss.Apps()
	return ReportFrom(apps, gatherEvents(apps))
}

// Breakdown losslessly merges the per-shard completed-application
// sketches into one cumulative cluster breakdown. Each application was
// observed exactly once, by its owning shard, so the merge equals what a
// single stream's completion hook would have sketched.
func (ss *ShardedStream) Breakdown() *ClusterBreakdown {
	out := NewClusterBreakdown()
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		err := out.Merge(sh.bd)
		sh.stMu.Unlock()
		if err != nil {
			// All shards share the default alpha; a mismatch is a bug.
			panic("core: shard breakdown merge: " + err.Error())
		}
	}
	return out
}

// Forget drops all state for one application from its owning shard.
func (ss *ShardedStream) Forget(id ids.AppID) {
	sh := ss.shards[ss.shardOf(id)]
	sh.stMu.Lock()
	had := sh.st.forget(id)
	sh.stMu.Unlock()
	if had && ss.met != nil {
		ss.met.evicted.Inc()
	}
}

// EvictCompleted forgets completed applications, oldest submission
// first, until at most keep remain across all shards.
func (ss *ShardedStream) EvictCompleted(keep int) int {
	if keep < 0 {
		keep = 0
	}
	return ss.evictOldestOf(keep, func(st *Stream) int { return st.done }, (*Stream).completedIDs)
}

// EvictOldest forgets the oldest applications — complete or not — until
// at most max are tracked across all shards (the hard memory bound; see
// Stream.EvictOldest).
func (ss *ShardedStream) EvictOldest(max int) int {
	if max < 0 {
		return 0
	}
	return ss.evictOldestOf(max, func(st *Stream) int { return len(st.apps) }, (*Stream).appIDs)
}

// evictOldestOf forgets the oldest of the candidate apps each shard's
// list yields until at most keep remain. The candidates are listed only
// when their cross-shard count exceeds keep, and nothing is published.
func (ss *ShardedStream) evictOldestOf(keep int, count func(*Stream) int, list func(*Stream) []ids.AppID) int {
	n := 0
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		n += count(sh.st)
		sh.stMu.Unlock()
	}
	if n <= keep {
		return 0
	}
	var cands []ids.AppID
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		cands = append(cands, list(sh.st)...)
		sh.stMu.Unlock()
	}
	if len(cands) <= keep {
		return 0
	}
	sortAppIDsBySeq(cands)
	victims := cands[:len(cands)-keep]
	for _, id := range victims {
		ss.Forget(id)
	}
	ss.updateAppGauges()
	return len(victims)
}

// updateAppGauges refreshes the in-flight / completed gauges from a
// cross-shard count. Unlike the serial stream this does not run per
// absorb (it would serialize the shards); Quiesce and the eviction
// entry points refresh it, which is where long-running feeds sit.
func (ss *ShardedStream) updateAppGauges() {
	if ss.met == nil {
		return
	}
	apps, done := 0, 0
	for _, sh := range ss.shards {
		sh.stMu.Lock()
		apps += len(sh.st.apps)
		done += sh.st.done
		sh.stMu.Unlock()
	}
	ss.met.completed.Set(int64(done))
	ss.met.inflight.Set(int64(apps - done))
}
