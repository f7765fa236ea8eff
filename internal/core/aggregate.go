package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/attr"
	"repro/internal/digest"
)

// This file is the cluster-level aggregation layer: it turns
// per-application decompositions into delay observations keyed by
// (component, queue, node, instance type) and folds them into mergeable
// quantile sketches (internal/digest), so percentile tables for a whole
// fleet — or for one queue or one node — come out of the same structure,
// and sketches from sharded runs combine exactly.

// Components lists every delay component the aggregation layer reports,
// in display order. App-level components come first, per-container ones
// after.
var Components = []string{
	"total", "am", "driver", "executor", "alloc",
	"acquisition", "localization", "launching", "queueing",
}

// Observation is one delay measurement bound to its cluster coordinates.
// Queue comes from the application's submission summary; Node and
// Instance are set on components with per-container (or AM-host)
// attribution and empty otherwise. App and AtMS carry drill-down
// identity — the application the delay belongs to and its event time
// (completion in cluster time) — consumed by the attribution layer;
// observations with an empty App aggregate without attribution.
type Observation struct {
	Component string
	Queue     string
	Node      string
	Instance  InstanceType
	MS        int64
	App       string
	AtMS      int64
}

// Observations extracts every observed delay component of one decomposed
// application. Missing components are skipped; a nil decomposition
// yields nil. Components measured on the AM host (am, driver, alloc)
// carry the AM container's node binding.
func Observations(a *AppTrace) []Observation {
	d := a.Decomp
	if d == nil {
		return nil
	}
	var amNode string
	var amInst InstanceType
	if am := a.AMContainer(); am != nil {
		amNode = am.Node
		amInst = am.Instance
	}
	// Event time for every component of this app: completion in cluster
	// time, matching the SLO engine's clock.
	appID := a.ID.String()
	atMS := a.Submitted
	if d.Total >= 0 {
		atMS += d.Total
	}
	out := make([]Observation, 0, 8+len(d.Acquisitions)+len(d.Localizations)+len(d.Launchings)+len(d.Queueings))
	app := func(component string, ms int64, node string, inst InstanceType) {
		if ms >= 0 {
			out = append(out, Observation{Component: component, Queue: a.Queue, Node: node, Instance: inst, MS: ms, App: appID, AtMS: atMS})
		}
	}
	app("total", d.Total, "", "")
	app("am", d.AM, amNode, amInst)
	app("driver", d.Driver, amNode, amInst)
	app("executor", d.Executor, "", "")
	app("alloc", d.Alloc, amNode, amInst)
	perCont := func(component string, cds []ContainerDelay) {
		for _, cd := range cds {
			out = append(out, Observation{Component: component, Queue: a.Queue, Node: cd.Node, Instance: cd.Instance, MS: cd.MS, App: appID, AtMS: atMS})
		}
	}
	perCont("acquisition", d.Acquisitions)
	perCont("localization", d.Localizations)
	perCont("launching", d.Launchings)
	perCont("queueing", d.Queueings)
	return out
}

// BreakdownKey addresses one sketch of a ClusterBreakdown.
type BreakdownKey struct {
	Component string
	Queue     string
	Node      string
	Instance  InstanceType
}

// BreakdownRow is one key's percentile summary, the /aggregate and HTML
// table row format.
type BreakdownRow struct {
	Component string  `json:"component"`
	Queue     string  `json:"queue,omitempty"`
	Node      string  `json:"node,omitempty"`
	Instance  string  `json:"instance,omitempty"`
	Count     uint64  `json:"count"`
	MeanMS    float64 `json:"mean_ms"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
}

// DefaultExemplarCap is the per-cell exemplar reservoir capacity used
// when attribution is enabled: enough to name the worst offenders of a
// cell without letting drill-down state dominate sketch memory.
const DefaultExemplarCap = 8

// BreakdownAttr is the drill-down state of a ClusterBreakdown: per-cell
// heavy hitters by contributed delay (worst apps per exact key) and
// per-component worst nodes, alongside the exemplar reservoirs living
// inside each cell sketch. Like the sketches it decorates, all of it is
// bounded and mergeable. Origin is a free-form shard label stamped on
// exemplars for the future multi-ingester fleet; it stays "" for
// in-process shards so reports remain byte-identical at any -workers.
type BreakdownAttr struct {
	ResCap int    // exemplar reservoir capacity per cell sketch
	TopCap int    // heavy-hitter capacity per top-k summary
	Origin string // shard label for exemplars ("" in-process)

	Apps  map[BreakdownKey]*attr.TopK // worst apps per (component, queue, node, instance)
	Nodes map[string]*attr.TopK       // worst nodes per component
}

func newBreakdownAttr() *BreakdownAttr {
	return &BreakdownAttr{
		ResCap: DefaultExemplarCap,
		TopCap: attr.DefaultTopK,
		Apps:   make(map[BreakdownKey]*attr.TopK),
		Nodes:  make(map[string]*attr.TopK),
	}
}

// ClusterBreakdown holds one quantile sketch per observed
// (component, queue, node, instance) combination. Rollups — one
// component across the fleet, one component per queue, per node — are
// computed by merging the exact-key sketches, which is lossless
// (digest.Merge is exact), so every view shares the same error bound.
// When Attr is non-nil (the default), cells additionally track exemplars
// and heavy hitters for drill-down; set Attr to nil before observing to
// measure or run the pre-attribution pipeline.
type ClusterBreakdown struct {
	Alpha    float64
	Sketches map[BreakdownKey]*digest.Sketch
	Attr     *BreakdownAttr
}

// NewClusterBreakdown returns an empty breakdown at the repo's default
// sketch accuracy, with attribution enabled.
func NewClusterBreakdown() *ClusterBreakdown {
	return &ClusterBreakdown{
		Alpha:    digest.DefaultAlpha,
		Sketches: make(map[BreakdownKey]*digest.Sketch),
		Attr:     newBreakdownAttr(),
	}
}

// Observe folds one application's observations in.
func (cb *ClusterBreakdown) Observe(a *AppTrace) {
	for _, o := range Observations(a) {
		cb.Add(o)
	}
}

// Add folds one observation in.
func (cb *ClusterBreakdown) Add(o Observation) {
	k := BreakdownKey{Component: o.Component, Queue: o.Queue, Node: o.Node, Instance: o.Instance}
	s := cb.Sketches[k]
	if s == nil {
		s = digest.New(cb.Alpha)
		if cb.Attr != nil {
			s.TrackExemplars(cb.Attr.ResCap)
		}
		cb.Sketches[k] = s
	}
	ms := float64(o.MS)
	if cb.Attr == nil || o.App == "" {
		s.Add(ms)
		return
	}
	s.AddExemplar(ms, o.App, o.AtMS, cb.Attr.Origin)
	tk := cb.Attr.Apps[k]
	if tk == nil {
		tk = attr.NewTopK(cb.Attr.TopCap)
		cb.Attr.Apps[k] = tk
	}
	tk.Offer(o.App, ms)
	if o.Node != "" {
		nk := cb.Attr.Nodes[o.Component]
		if nk == nil {
			nk = attr.NewTopK(cb.Attr.TopCap)
			cb.Attr.Nodes[o.Component] = nk
		}
		nk.Offer(o.Node, ms)
	}
}

// Merge folds another breakdown (e.g. one shard's) into cb. Attribution
// state merges alongside the sketches; if either side carries it, the
// result does.
func (cb *ClusterBreakdown) Merge(other *ClusterBreakdown) error {
	for k, s := range other.Sketches {
		dst := cb.Sketches[k]
		if dst == nil {
			dst = digest.New(cb.Alpha)
			if cb.Attr != nil {
				dst.TrackExemplars(cb.Attr.ResCap)
			}
			cb.Sketches[k] = dst
		}
		if err := dst.Merge(s); err != nil {
			return fmt.Errorf("core: breakdown key %+v: %w", k, err)
		}
	}
	if other.Attr != nil {
		if cb.Attr == nil {
			cb.Attr = newBreakdownAttr()
			cb.Attr.ResCap = other.Attr.ResCap
			cb.Attr.TopCap = other.Attr.TopCap
		}
		for k, tk := range other.Attr.Apps {
			dst := cb.Attr.Apps[k]
			if dst == nil {
				dst = attr.NewTopK(cb.Attr.TopCap)
				cb.Attr.Apps[k] = dst
			}
			dst.Merge(tk)
		}
		for c, tk := range other.Attr.Nodes {
			dst := cb.Attr.Nodes[c]
			if dst == nil {
				dst = attr.NewTopK(cb.Attr.TopCap)
				cb.Attr.Nodes[c] = dst
			}
			dst.Merge(tk)
		}
	}
	return nil
}

// Component returns the fleet-wide rollup sketch for one component
// (empty sketch when unobserved).
func (cb *ClusterBreakdown) Component(component string) *digest.Sketch {
	out := digest.New(cb.Alpha)
	for k, s := range cb.Sketches {
		if k.Component == component {
			out.Merge(s) // same alpha by construction
		}
	}
	return out
}

// GroupBy rolls one component up by an arbitrary key dimension (queue,
// node, instance). Keys mapping to "" are grouped under "" too, so
// callers can drop or label them.
func (cb *ClusterBreakdown) GroupBy(component string, dim func(BreakdownKey) string) map[string]*digest.Sketch {
	out := make(map[string]*digest.Sketch)
	for k, s := range cb.Sketches {
		if k.Component != component {
			continue
		}
		g := dim(k)
		dst := out[g]
		if dst == nil {
			dst = digest.New(cb.Alpha)
			out[g] = dst
		}
		dst.Merge(s)
	}
	return out
}

// ByQueue rolls one component up per queue.
func (cb *ClusterBreakdown) ByQueue(component string) map[string]*digest.Sketch {
	return cb.GroupBy(component, func(k BreakdownKey) string { return k.Queue })
}

// ByNode rolls one component up per node.
func (cb *ClusterBreakdown) ByNode(component string) map[string]*digest.Sketch {
	return cb.GroupBy(component, func(k BreakdownKey) string { return k.Node })
}

// Worst returns the group with the highest p99 among groups with at
// least minCount observations — the "worst node" / "worst queue"
// callout. Empty-name groups (unattributed observations) are skipped.
func Worst(groups map[string]*digest.Sketch, minCount uint64) (name string, p99 float64, ok bool) {
	for g, s := range groups {
		if g == "" || s.Count() < minCount {
			continue
		}
		q := s.Quantile(0.99)
		// Break p99 ties lexicographically so the callout is stable
		// across map iteration order.
		if !ok || q > p99 || (q == p99 && g < name) {
			name, p99, ok = g, q, true
		}
	}
	return name, p99, ok
}

// rowQuantiles are the ranks every BreakdownRow reports, ascending so
// one Quantiles walk answers them all.
var rowQuantiles = [...]float64{0.50, 0.95, 0.99}

func row(component, queue, node string, inst InstanceType, s *digest.Sketch) BreakdownRow {
	var q [len(rowQuantiles)]float64
	s.Quantiles(rowQuantiles[:], q[:])
	return BreakdownRow{
		Component: component, Queue: queue, Node: node, Instance: string(inst),
		Count:  s.Count(),
		MeanMS: s.Mean(),
		P50MS:  q[0],
		P95MS:  q[1],
		P99MS:  q[2],
		MaxMS:  s.Max(),
	}
}

// componentRank is each component's index in Components, the row
// display order; a component outside Components ranks with the first.
var componentRank = func() map[string]int {
	m := make(map[string]int, len(Components))
	for i, c := range Components {
		m[c] = i
	}
	return m
}()

// Rows renders every exact key as a summary row, sorted by component
// display order, then queue, node, instance.
func (cb *ClusterBreakdown) Rows() []BreakdownRow {
	// Place the rows by component rank (a counting sort), then sort each
	// component's run: the comparator never looks a rank up.
	run := make([]int, len(Components)+1)
	for k := range cb.Sketches {
		run[componentRank[k.Component]]++
	}
	for r := 1; r < len(run); r++ {
		run[r] += run[r-1]
	}
	out := make([]BreakdownRow, len(cb.Sketches))
	for k, s := range cb.Sketches {
		r := componentRank[k.Component]
		run[r]--
		out[run[r]] = row(k.Component, k.Queue, k.Node, k.Instance, s)
	}
	// run[r] is now where rank r's rows start; run[len(Components)] is
	// len(out).
	for r := range Components {
		slices.SortFunc(out[run[r]:run[r+1]], func(a, b BreakdownRow) int {
			return cmp.Or(
				cmp.Compare(a.Queue, b.Queue),
				cmp.Compare(a.Node, b.Node),
				cmp.Compare(a.Instance, b.Instance))
		})
	}
	return out
}

// ComponentRows renders the fleet-wide rollup, one row per component in
// display order, skipping unobserved components.
func (cb *ClusterBreakdown) ComponentRows() []BreakdownRow {
	out := make([]BreakdownRow, 0, len(Components))
	for _, c := range Components {
		s := cb.Component(c)
		if s.Count() == 0 {
			continue
		}
		out = append(out, row(c, "", "", "", s))
	}
	return out
}

// Breakdown aggregates the report's applications into a fresh
// ClusterBreakdown.
func (r *Report) Breakdown() *ClusterBreakdown {
	cb := NewClusterBreakdown()
	for _, a := range r.Apps {
		cb.Observe(a)
	}
	return cb
}
