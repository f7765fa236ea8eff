// Package obs is the mining pipeline's self-observability layer: the
// paper's tool decomposes *other* systems' scheduling pipelines from
// their logs, and this package turns the same lens on the tool itself.
//
// A Pipeline carries three coordinated views of the six pipeline stages
// (read, parse, cross-shard forward, decompose, aggregate, serve-scan):
//
//   - stage spans: per-stage latency histograms and throughput counters
//     in an internal/metrics registry, plus a bounded ring of recent
//     spans renderable as a Perfetto track next to mined app timelines;
//   - a flight recorder: a fixed-size ring of structured pipeline
//     events (see flight.go) dumped deterministically on demand and
//     automatically when the watchdog trips;
//   - self-observations: a bounded buffer of (stage, duration) samples
//     the serve loop drains into its own internal/slo engine, so the
//     checker's SLO machinery evaluates the checker itself.
//
// Instrumentation stays out of the per-line hot path by contract: every
// recording method is called once per batch/chunk/scan, never per line,
// and every method is safe on a nil *Pipeline so call sites in
// internal/core remain unconditional (the repo's nil-safe metrics
// idiom). The clock is injectable, which makes flight dumps of a serial
// run byte-reproducible.
package obs

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// The six pipeline stages, in pipeline order. These are the component
// vocabulary for self-SLO rules (slo.ParseRulesFor), the stage label on
// every obs_ metric, and the Perfetto track names.
const (
	StageRead      = "read"      // file walk + appended-byte drain
	StageParse     = "parse"     // regex extraction over a line batch
	StageForward   = "forward"   // absorbing cross-shard event batches
	StageDecompose = "decompose" // per-app delay decomposition
	StageAggregate = "aggregate" // completion hook: sketches + SLO fold
	StageScan      = "scan"      // one whole serve-loop ingestion pass
)

// Stages lists every stage in pipeline order.
var Stages = []string{StageRead, StageParse, StageForward, StageDecompose, StageAggregate, StageScan}

// stageBuckets covers 10µs .. ~84s with constant relative resolution:
// per-batch parse times live in the sub-millisecond range, full serve
// scans of a large tree in seconds.
var stageBuckets = metrics.ExpBuckets(0.01, 2, 24)

// Tick is one clock reading: wall milliseconds for event placement and
// nanoseconds for durations (sub-millisecond batches would vanish in a
// millisecond-only clock).
type Tick struct {
	MS int64
	NS int64
}

// StageObs is one self-observation: a stage latency sample the serve
// loop feeds through its own SLO engine.
type StageObs struct {
	Stage string
	AtMS  int64
	DurUS int64
}

// StageStat is one stage's cumulative view, the bench/report row.
type StageStat struct {
	Stage   string  `json:"stage"`
	Batches int64   `json:"batches"`
	Items   int64   `json:"items"`
	TotalMS float64 `json:"total_ms"`
	P50MS   float64 `json:"p50_ms"`
	P99MS   float64 `json:"p99_ms"`
}

// stageSet is one stage's metric instruments.
type stageSet struct {
	hist    *metrics.Histogram // obs_stage_duration_ms{stage=...}
	items   *metrics.Counter   // obs_stage_items_total{stage=...}
	batches *metrics.Counter   // obs_stage_batches_total{stage=...}
}

// spanRec is one completed stage span in the bounded span ring.
type spanRec struct {
	stage          string
	shard          int
	startMS, endMS int64
	items          int
}

// Pipeline is the per-deployment observability hub. Create one with New
// and hand it to the stream (ObservePipeline), the miner
// (MineDirObserved), and the serve loop. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Pipeline struct {
	base  time.Time
	clock func() int64 // nil = wall clock; else test clock in ms

	stages map[string]*stageSet
	flight *Flight

	filesPending *metrics.Gauge

	spanMu   sync.Mutex
	spans    []spanRec
	spanNext uint64 // total spans ever recorded

	selfMu      sync.Mutex
	selfBuf     []StageObs
	selfDropped *metrics.Counter

	// selfCap bounds selfBuf between drains.
	selfCap int
}

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithClock replaces the wall clock with a millisecond test clock. Every
// Tick derives both fields from it, so durations — and therefore flight
// dumps — become deterministic.
func WithClock(fn func() int64) Option {
	return func(p *Pipeline) { p.clock = fn }
}

// WithFlightSize overrides the flight recorder ring capacity
// (DefaultFlightSize).
func WithFlightSize(n int) Option {
	return func(p *Pipeline) {
		if n > 0 {
			p.flight.resize(n)
		}
	}
}

// WithSpanCap overrides the span ring capacity (DefaultSpanCap).
func WithSpanCap(n int) Option {
	return func(p *Pipeline) {
		if n > 0 {
			p.spans = make([]spanRec, 0, n)
		}
	}
}

// DefaultSpanCap bounds the recent-span ring behind the Perfetto export.
const DefaultSpanCap = 4096

// defaultSelfCap bounds the self-observation buffer between drains; a
// stuck serve loop must not leak memory through its own instruments.
const defaultSelfCap = 8192

// New builds a Pipeline registering its metric families in reg (which
// may be nil: the instruments are then inert, the rings still work).
// Every stage's series are pre-registered so /metrics always exposes
// all six, observed or not.
func New(reg *metrics.Registry, opts ...Option) *Pipeline {
	p := &Pipeline{
		base:         time.Now(),
		stages:       make(map[string]*stageSet, len(Stages)),
		flight:       newFlight(reg, DefaultFlightSize),
		spans:        make([]spanRec, 0, DefaultSpanCap),
		selfCap:      defaultSelfCap,
		filesPending: reg.Gauge("obs_mine_files_pending"),
		selfDropped:  reg.Counter("obs_self_observations_dropped_total"),
	}
	for _, st := range Stages {
		p.stages[st] = &stageSet{
			hist:    reg.Histogram("obs_stage_duration_ms", stageBuckets, "stage", st),
			items:   reg.Counter("obs_stage_items_total", "stage", st),
			batches: reg.Counter("obs_stage_batches_total", "stage", st),
		}
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Begin reads the clock. On a nil pipeline it returns the zero Tick, so
// instrumented code paths never pay a clock read when unobserved.
func (p *Pipeline) Begin() Tick {
	if p == nil {
		return Tick{}
	}
	if p.clock != nil {
		ms := p.clock()
		return Tick{MS: ms, NS: ms * int64(time.Millisecond)}
	}
	return Tick{MS: time.Now().UnixMilli(), NS: time.Since(p.base).Nanoseconds()}
}

// StageBatch records one completed batch of a stage, ending now: the
// histograms, the span ring, the flight recorder, and the self-SLO
// buffer all see it. shard is the worker index, or -1 when the stage is
// not shard-scoped.
func (p *Pipeline) StageBatch(stage string, shard int, start Tick, items int) {
	if p == nil {
		return
	}
	p.StageSpan(stage, shard, start, p.Begin(), items)
}

// StageSpan is StageBatch with an explicit end Tick, for adjacent stages
// that share one clock read (the end of parse is the start of absorb).
func (p *Pipeline) StageSpan(stage string, shard int, start, end Tick, items int) {
	if p == nil {
		return
	}
	st := p.stages[stage]
	if st == nil {
		return // unknown stage: a programming error, but never crash the pipeline
	}
	durNS := end.NS - start.NS
	if durNS < 0 {
		durNS = 0
	}
	st.hist.Observe(float64(durNS) / float64(time.Millisecond))
	st.items.Add(int64(items))
	st.batches.Inc()

	p.spanMu.Lock()
	rec := spanRec{stage: stage, shard: shard, startMS: start.MS, endMS: end.MS, items: items}
	if len(p.spans) < cap(p.spans) {
		p.spans = append(p.spans, rec)
	} else if cap(p.spans) > 0 {
		p.spans[p.spanNext%uint64(cap(p.spans))] = rec
	}
	p.spanNext++
	p.spanMu.Unlock()

	p.flight.Record(Event{AtMS: end.MS, Kind: KindStage, Stage: stage, Shard: shard, N: int64(items), DurUS: durNS / int64(time.Microsecond)})

	p.selfMu.Lock()
	if len(p.selfBuf) < p.selfCap {
		p.selfBuf = append(p.selfBuf, StageObs{Stage: stage, AtMS: end.MS, DurUS: durNS / int64(time.Microsecond)})
	} else {
		p.selfDropped.Inc()
	}
	p.selfMu.Unlock()
}

// DrainSelf returns and clears the buffered self-observations, oldest
// first. The serve loop calls it once per scan and feeds the samples
// through its self-SLO engine.
func (p *Pipeline) DrainSelf() []StageObs {
	if p == nil {
		return nil
	}
	p.selfMu.Lock()
	out := p.selfBuf
	p.selfBuf = nil
	p.selfMu.Unlock()
	return out
}

// FilesPending publishes how many mine inputs the walk has yielded that
// no worker has claimed yet (the offline miner's queue-depth gauge).
func (p *Pipeline) FilesPending(n int) {
	if p == nil {
		return
	}
	p.filesPending.Set(int64(n))
}

// RecordForward notes a cross-shard event forward in the flight
// recorder (the stage histogram sees the absorb side via StageForward
// batches; this records the routing decision itself).
func (p *Pipeline) RecordForward(from, to int, events int) {
	if p == nil {
		return
	}
	p.flight.Record(Event{AtMS: p.Begin().MS, Kind: KindForward, Stage: StageForward, Shard: from, N: int64(events), Detail: "to shard " + strconv.Itoa(to)})
}

// RecordHook notes one completion-hook fire.
func (p *Pipeline) RecordHook(app string) {
	if p == nil {
		return
	}
	p.flight.Record(Event{AtMS: p.Begin().MS, Kind: KindHook, Shard: -1, N: 1, Detail: app})
}

// RecordEvict notes one application eviction.
func (p *Pipeline) RecordEvict(app string) {
	if p == nil {
		return
	}
	p.flight.Record(Event{AtMS: p.Begin().MS, Kind: KindEvict, Shard: -1, N: 1, Detail: app})
}

// RecordWarnBurst notes a burst of dropped/unmatched lines between two
// scans (n is the burst size).
func (p *Pipeline) RecordWarnBurst(n int64) {
	if p == nil {
		return
	}
	p.flight.Record(Event{AtMS: p.Begin().MS, Kind: KindWarnBurst, Shard: -1, N: n})
}

// RecordSLOTransition notes one SLO alert edge: rule is the rule name,
// firing selects slo_fire vs slo_resolve, and apps is the number of
// exemplar applications captured at fire time. The serve loop installs
// this as the engine's transition hook so stall snapshots show alert
// edges in context.
func (p *Pipeline) RecordSLOTransition(rule string, firing bool, apps int) {
	if p == nil {
		return
	}
	kind := KindSLOResolve
	if firing {
		kind = KindSLOFire
	}
	p.flight.Record(Event{AtMS: p.Begin().MS, Kind: kind, Shard: -1, N: int64(apps), Detail: rule})
}

// RecordQuiesce notes a Quiesce boundary; begin events carry the
// pending work count at entry.
func (p *Pipeline) RecordQuiesce(begin bool, pending int) {
	if p == nil {
		return
	}
	kind := KindQuiesceEnd
	if begin {
		kind = KindQuiesceBegin
	}
	p.flight.Record(Event{AtMS: p.Begin().MS, Kind: kind, Shard: -1, N: int64(pending)})
}

// Flight exposes the flight recorder (nil on a nil pipeline).
func (p *Pipeline) Flight() *Flight {
	if p == nil {
		return nil
	}
	return p.flight
}

// FlightDump snapshots the flight recorder; see Flight.Dump.
func (p *Pipeline) FlightDump() Dump {
	if p == nil {
		return Dump{}
	}
	return p.flight.Dump()
}

// Spans renders the recent-span ring as trace spans on a single
// "pipeline" process: one track per stage, shard-scoped stages split
// into per-shard tracks so imbalance is visible next to the mined app
// timelines in the same Perfetto UI. Spans come out oldest first.
func (p *Pipeline) Spans() []sim.TraceSpan {
	if p == nil {
		return nil
	}
	p.spanMu.Lock()
	recs := make([]spanRec, 0, len(p.spans))
	if n := uint64(len(p.spans)); p.spanNext > n && cap(p.spans) > 0 {
		start := p.spanNext % uint64(cap(p.spans))
		recs = append(recs, p.spans[start:]...)
		recs = append(recs, p.spans[:start]...)
	} else {
		recs = append(recs, p.spans...)
	}
	p.spanMu.Unlock()

	out := make([]sim.TraceSpan, 0, len(recs))
	for _, r := range recs {
		thread := r.stage
		if r.shard >= 0 {
			thread = r.stage + "/shard-" + two(r.shard)
		}
		out = append(out, sim.TraceSpan{
			Process: PipelineTrack,
			Thread:  thread,
			Name:    r.stage,
			Start:   sim.Time(r.startMS),
			End:     sim.Time(r.endMS),
			Args:    map[string]string{"items": strconv.Itoa(r.items)},
		})
	}
	return out
}

// PipelineTrack is the Perfetto process name grouping all pipeline
// stage tracks.
const PipelineTrack = "pipeline"

// two zero-pads a shard index to two digits so tracks sort naturally.
func two(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}

// StageStats summarizes every stage in pipeline order: batch/item
// throughput plus interpolated latency quantiles, the bench_pipeline
// rows.
func (p *Pipeline) StageStats() []StageStat {
	if p == nil {
		return nil
	}
	out := make([]StageStat, 0, len(Stages))
	for _, name := range Stages {
		st := p.stages[name]
		out = append(out, StageStat{
			Stage:   name,
			Batches: st.batches.Value(),
			Items:   st.items.Value(),
			TotalMS: st.hist.Sum(),
			P50MS:   st.hist.Quantile(0.50),
			P99MS:   st.hist.Quantile(0.99),
		})
	}
	return out
}
