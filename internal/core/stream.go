package core

import (
	"cmp"
	"io"
	"slices"
	"strings"

	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// singleLine wraps one raw line as a reader for the offline parser.
func singleLine(s string) io.Reader { return strings.NewReader(s) }

// Stream is the incremental variant of the checker: feed it log lines as
// they are produced (a live cluster's `tail -f`, or a simulation pumping
// events) and read current decompositions at any point. Unlike Checker,
// which parses whole files, Stream accepts interleaved lines from many
// sources, in any order across files.
//
// Each absorbed event is folded into its application's live state in
// O(1) amortized (see appState), never by re-correlating the app. The
// Correlate + Decompose view, an *AppTrace, is built only when it is
// published: on the completion transition that fires OnComplete, and
// when a changed app is read through App, Apps or Report. A published
// trace is never mutated afterwards, so readers may keep and read it
// without holding any lock of the stream's owner.
//
// Lines from container stderr files must be attributed to their
// container; pass the file path (containing the container ID) as source,
// exactly as the offline parser derives it.
type Stream struct {
	apps  map[ids.AppID]*appState
	total int
	// done counts apps whose Complete predicate holds, feeding the
	// in-flight / completed gauges without a walk over every app.
	done       int
	onComplete func(*AppTrace)
	// lastMS is the max event timestamp absorbed — the stream's event
	// clock, which downstream SLO evaluation advances on.
	lastMS int64
	met    *streamMetrics
	pmet   *parserMetrics
	// scratch is the reusable per-feed parser for the fast matcher: its
	// event slice is reset (not freed) each feed, which is what makes a
	// non-matching line allocation-free. The regexp reference path keeps
	// its historical throwaway-parser-per-line behavior.
	scratch *Parser
	// pl, when set, receives flight-recorder events (hook fires,
	// evictions). The serial stream has no batch boundaries of its own, so
	// stage timing lives with the callers that batch (dirScanner, miner).
	pl *obs.Pipeline
}

// ObservePipeline attaches the self-observability pipeline: completion
// hook fires and evictions are recorded in its flight recorder. Attach
// before feeding; a nil pipeline keeps the stream unobserved (the calls
// are nil-safe no-ops).
func (s *Stream) ObservePipeline(p *obs.Pipeline) { s.pl = p }

// ShardStat is one worker's progress sample for the pipeline watchdog:
// its current queue depth and its cumulative processed-batch count.
type ShardStat struct {
	Queued    int
	Processed int64
}

// ShardStats returns nil on the serial stream — there are no worker
// queues to stall. It exists so Stream and ShardedStream satisfy the
// same ingestion interface.
func (s *Stream) ShardStats() []ShardStat { return nil }

// streamMetrics are the stream's observability hooks; nil until
// Instrument is called.
type streamMetrics struct {
	lines     *metrics.Counter // lines fed
	matched   *metrics.Counter // lines that produced >= 1 event
	dropped   *metrics.Counter // lines that produced nothing
	events    *metrics.Counter // scheduling events absorbed
	inflight  *metrics.Gauge   // apps seen but not yet complete
	completed *metrics.Gauge   // apps with a complete decomposition
	evicted   *metrics.Counter // apps forgotten/evicted
}

// newStreamMetrics registers the stream-level counters and gauges; the
// serial Stream and the ShardedStream expose the same metric names so
// dashboards work against either ingestion path.
func newStreamMetrics(reg *metrics.Registry) *streamMetrics {
	return &streamMetrics{
		lines:     reg.Counter("core_stream_lines_total"),
		matched:   reg.Counter("core_stream_lines_matched_total"),
		dropped:   reg.Counter("core_stream_lines_dropped_total"),
		events:    reg.Counter("core_stream_events_total"),
		inflight:  reg.Gauge("core_stream_apps_inflight"),
		completed: reg.Gauge("core_stream_apps_completed"),
		evicted:   reg.Counter("core_stream_apps_evicted_total"),
	}
}

// Instrument registers the stream's line/event counters and app gauges in
// reg, plus the shared parser counters every per-line parser reports to.
// Call once, before feeding; a nil registry is a no-op.
func (s *Stream) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.met = newStreamMetrics(reg)
	s.pmet = newParserMetrics(reg)
}

// NewStream returns an empty incremental checker.
func NewStream() *Stream {
	return &Stream{apps: make(map[ids.AppID]*appState)}
}

// OnComplete registers a hook called the first time an application's
// decomposition becomes fully observable (the Complete predicate) — the
// feed point for cluster-level aggregation and SLO evaluation. The hook
// runs synchronously inside Feed with the freshly published trace; it
// must not call back into the stream. Each application is delivered at
// most once, even if degraded later input turns its decomposition
// partial and complete again. Pass nil to remove the hook.
func (s *Stream) OnComplete(fn func(*AppTrace)) { s.onComplete = fn }

// Feed consumes one raw log line from the given source path. Unparseable
// lines are ignored, like the offline parser does. It returns true when
// the line produced at least one scheduling event.
func (s *Stream) Feed(source, rawLine string) bool {
	if s.met != nil {
		s.met.lines.Inc()
	}
	matched := s.feed(source, rawLine)
	if s.met != nil {
		if matched {
			s.met.matched.Inc()
		} else {
			s.met.dropped.Inc()
		}
	}
	return matched
}

func (s *Stream) feed(source, rawLine string) bool {
	if referenceMatcher() {
		return s.absorbRouted(parseLineEvents(s.pmet, source, rawLine)) > 0
	}
	if s.scratch == nil {
		s.scratch = NewParser()
	}
	return s.absorbRouted(parseScratch(s.scratch, s.pmet, source, rawLine)) > 0
}

// parseScratch parses one line with the fast matcher into p's reusable
// event slice and returns it, valid until p's next use. Dedup that
// depends on stream state (FIRST_LOG, FIRST_TASK) is left to the
// absorbing Stream.
func parseScratch(p *Parser, pm *parserMetrics, source, raw string) []Event {
	p.met = pm
	p.events = p.events[:0]
	if cid, found, err := fastFindContainerID(source); found {
		if err != nil || p.feedContainerSegments(source, cid, segmentIter{raw: raw}, nil) != nil {
			return nil
		}
		return p.events
	}
	if p.feedDaemonSegments(source, segmentIter{raw: raw}) != nil {
		return nil
	}
	return p.events
}

// absorbRouted dedups one line's parsed events against stream state and
// absorbs the survivors, returning how many were absorbed. It is the
// entry point for both Feed and a ShardedStream worker. The slice is
// filtered in place and not retained.
func (s *Stream) absorbRouted(evs []Event) int {
	evs = s.dedup(evs)
	if len(evs) == 0 {
		return 0
	}
	for _, e := range evs {
		s.app(e.App).fold(e)
		s.total++
		if e.TimeMS > s.lastMS {
			s.lastMS = e.TimeMS
		}
	}
	// Settle each touched application once, after the whole line, in
	// first-touch order: completion is judged on the line's full effect.
	for i, e := range evs {
		if !slices.ContainsFunc(evs[:i], func(p Event) bool { return p.App == e.App }) {
			s.settle(s.apps[e.App])
		}
	}
	if s.met != nil {
		s.met.events.Add(int64(len(evs)))
		s.updateAppGauges()
	}
	return len(evs)
}

// dedup drops, in place, the events stream state makes redundant: a
// container's FIRST_LOG after its first (a stream cannot re-read "the
// first line of the file"), and FIRST_TASK once the container has one
// (the offline parser keeps one per file). The FIRST_TASK check runs
// against the state before this line, as a per-file parse would.
func (s *Stream) dedup(evs []Event) []Event {
	out := evs[:0]
	for _, e := range evs {
		switch e.Kind {
		case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
			if !e.Container.IsZero() {
				c := s.app(e.App).container(e.Container)
				if c.firstLogSeen {
					continue
				}
				c.firstLogSeen = true
			}
		case FirstTask:
			if st := s.apps[e.App]; st != nil {
				if c := st.cons[e.Container]; c != nil && c.FirstTask != 0 {
					continue
				}
			}
		}
		out = append(out, e)
	}
	return out
}

// app returns the live state for id, creating it on first sight.
func (s *Stream) app(id ids.AppID) *appState {
	st := s.apps[id]
	if st == nil {
		st = &appState{t: AppTrace{ID: id}, cons: make(map[ids.ContainerID]*conState)}
		s.apps[id] = st
	}
	return st
}

// settle re-evaluates one application's Complete predicate after a fold
// — from the folded inputs, without building its trace — and publishes
// the trace to the completion hook on its first completion.
func (s *Stream) settle(st *appState) {
	was := st.complete
	st.complete = st.completeNow()
	switch {
	case st.complete && !was:
		s.done++
	case was && !st.complete:
		s.done--
	}
	if st.complete && !st.notified {
		st.notified = true
		if s.onComplete != nil {
			a := st.view()
			s.pl.RecordHook(a.ID.String())
			s.onComplete(a)
		}
	}
}

// updateAppGauges refreshes the in-flight / completed app gauges.
func (s *Stream) updateAppGauges() {
	if s.met == nil {
		return
	}
	s.met.completed.Set(int64(s.done))
	s.met.inflight.Set(int64(len(s.apps) - s.done))
}

// EventCount returns the number of scheduling events absorbed so far.
func (s *Stream) EventCount() int { return s.total }

// LastEventMS returns the latest event timestamp absorbed so far (0
// before any event) — the stream's event clock.
func (s *Stream) LastEventMS() int64 { return s.lastMS }

// App returns the published trace for one application, or nil. The
// trace is immutable; a later feed for the app publishes a new one.
func (s *Stream) App(id ids.AppID) *AppTrace {
	if st := s.apps[id]; st != nil {
		return st.view()
	}
	return nil
}

// Apps returns the published traces ordered by submission sequence (ties
// — possible only when garbage input mints several cluster timestamps —
// broken by cluster timestamp, so the order is deterministic).
func (s *Stream) Apps() []*AppTrace {
	out := make([]*AppTrace, 0, len(s.apps))
	for _, st := range s.apps {
		out = append(out, st.view())
	}
	sortTracesBySeq(out)
	return out
}

// Quiesce is a no-op on the serial stream — Feed absorbs synchronously.
// It exists so Stream and ShardedStream satisfy the same ingestion
// interface.
func (s *Stream) Quiesce() {}

// Close is a no-op on the serial stream — there are no worker
// goroutines to stop. It exists for interface symmetry with
// ShardedStream.
func (s *Stream) Close() {}

// Report snapshots the current state into a full report (aggregates +
// bug detection), like Checker.Analyze but reusable mid-stream. It
// publishes every changed app and gathers the events with gatherEvents,
// so the report is deterministic for a given set of feeds — and
// identical to what a ShardedStream fed the same lines reports.
func (s *Stream) Report() *Report {
	apps := s.Apps()
	return ReportFrom(apps, gatherEvents(apps))
}

// gatherEvents concatenates the traces' time-ordered events and stable-
// sorts them by timestamp: ties fall in trace order, then arrival order
// within an application.
func gatherEvents(apps []*AppTrace) []Event {
	n := 0
	for _, a := range apps {
		n += len(a.Events)
	}
	all := make([]Event, 0, n)
	for _, a := range apps {
		all = append(all, a.Events...)
	}
	out := make([]Event, len(all))
	for k, i := range timeOrder(all) {
		out[k] = all[i]
	}
	return out
}

// Complete reports whether an application's headline decomposition is
// fully observable and anomaly-free (the Decomposition.Complete flag) —
// the signal a live dashboard uses to mark a row final.
func (s *Stream) Complete(id ids.AppID) bool {
	st := s.apps[id]
	return st != nil && st.complete
}

// Forget drops all state for one application: its folded state, its
// events, and the FIRST_LOG dedup marks of its containers. Long-running
// feeds (sdchecker -serve) call this for finished apps so memory tracks
// the live working set, not the full history.
func (s *Stream) Forget(id ids.AppID) { s.forget(id) }

// forget is Forget reporting whether the app was tracked.
func (s *Stream) forget(id ids.AppID) bool {
	st := s.apps[id]
	if st == nil {
		return false
	}
	s.total -= len(st.events)
	if st.complete {
		s.done--
	}
	delete(s.apps, id)
	s.pl.RecordEvict(id.String())
	if s.met != nil {
		s.met.evicted.Inc()
		s.updateAppGauges()
	}
	return true
}

// completedIDs lists the applications whose Complete predicate holds.
func (s *Stream) completedIDs() []ids.AppID {
	out := make([]ids.AppID, 0, s.done)
	for id, st := range s.apps {
		if st.complete {
			out = append(out, id)
		}
	}
	return out
}

// appIDs lists every tracked application.
func (s *Stream) appIDs() []ids.AppID {
	out := make([]ids.AppID, 0, len(s.apps))
	for id := range s.apps {
		out = append(out, id)
	}
	return out
}

// EvictCompleted forgets completed applications, oldest submission first,
// until at most keep of them remain. It returns how many were evicted.
// In-flight applications are never evicted: their decompositions are
// still growing.
func (s *Stream) EvictCompleted(keep int) int {
	if keep < 0 {
		keep = 0
	}
	if s.done <= keep {
		return 0
	}
	return s.evictOldestOf(s.completedIDs(), keep)
}

// EvictOldest is the hard memory bound behind EvictCompleted: when more
// than max applications are tracked — complete or not — the oldest by
// submission sequence are forgotten until max remain. Garbage input can
// mint unbounded app IDs whose decompositions never complete; without
// this bound a tailing server would hold them all forever.
func (s *Stream) EvictOldest(max int) int {
	if max < 0 || len(s.apps) <= max {
		return 0
	}
	return s.evictOldestOf(s.appIDs(), max)
}

// evictOldestOf forgets all but the keep newest of the given apps.
func (s *Stream) evictOldestOf(cands []ids.AppID, keep int) int {
	sortAppIDsBySeq(cands)
	victims := cands[:len(cands)-keep]
	for _, id := range victims {
		s.forget(id)
	}
	return len(victims)
}

// sortAppIDsBySeq orders application IDs by submission sequence, ties
// (distinct cluster timestamps, garbage input only) by cluster timestamp.
func sortAppIDsBySeq(a []ids.AppID) {
	slices.SortFunc(a, cmpAppID)
}

// sortTracesBySeq orders traces the same way sortAppIDsBySeq orders IDs.
func sortTracesBySeq(out []*AppTrace) {
	slices.SortFunc(out, func(x, y *AppTrace) int { return cmpAppID(x.ID, y.ID) })
}

func cmpAppID(x, y ids.AppID) int {
	if c := cmp.Compare(x.Seq, y.Seq); c != 0 {
		return c
	}
	return cmp.Compare(x.ClusterTS, y.ClusterTS)
}
