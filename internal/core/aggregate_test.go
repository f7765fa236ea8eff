package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/digest"
)

// TestObservationsExtraction checks the observation extraction against the
// hand-built Spark corpus: every component appears with the right cluster
// coordinates, and AM-host components inherit the AM container's node.
func TestObservationsExtraction(t *testing.T) {
	rep := analyze(t, buildSparkCorpus())
	obs := Observations(rep.Apps[0])

	byComp := make(map[string][]Observation)
	for _, o := range obs {
		byComp[o.Component] = append(byComp[o.Component], o)
	}
	counts := map[string]int{
		"total": 1, "am": 1, "driver": 1, "executor": 1, "alloc": 1,
		"acquisition": 3, "localization": 3, "launching": 3, "queueing": 3,
	}
	for comp, want := range counts {
		if got := len(byComp[comp]); got != want {
			t.Errorf("%s: %d observations, want %d", comp, got, want)
		}
	}
	if len(obs) != 17 {
		t.Errorf("total observations = %d, want 17", len(obs))
	}
	// AM-host components carry the AM container's node (mined from the NM
	// log filename); app-wide components carry no node.
	for _, comp := range []string{"am", "driver", "alloc"} {
		if n := byComp[comp][0].Node; n != "node01" {
			t.Errorf("%s node = %q, want node01", comp, n)
		}
	}
	for _, comp := range []string{"total", "executor"} {
		if n := byComp[comp][0].Node; n != "" {
			t.Errorf("%s node = %q, want empty", comp, n)
		}
	}
	for _, o := range byComp["localization"] {
		if o.Node != "node01" {
			t.Errorf("localization node = %q, want node01", o.Node)
		}
	}
	if obs2 := Observations(&AppTrace{}); obs2 != nil {
		t.Errorf("nil decomposition should yield nil, got %v", obs2)
	}
}

// TestObservationsNodeFromScheduler checks the second node-attribution
// source: the RM scheduler's "Assigned container ... on host" line, for
// containers whose NM log never surfaces (lost nodes, truncated logs).
func TestObservationsNodeFromScheduler(t *testing.T) {
	cs := buildSparkCorpus()
	e1 := "container_1499000000000_0001_01_000002"
	cs.add("hadoop/yarn-resourcemanager.log",
		line(5400, "x.CapacityScheduler",
			"Assigned container "+e1+" of capacity <memory:4096, vCores:8> on host nodeX"))
	// Drop the NM log so the scheduler line is the only node source.
	delete(cs, "hadoop/yarn-nodemanager-node01.log")
	rep := analyze(t, cs)
	var found bool
	for _, c := range rep.Apps[0].Containers {
		if c.ID.String() == e1 {
			found = true
			if c.Node != "nodeX" {
				t.Errorf("node = %q, want nodeX (from scheduler line)", c.Node)
			}
		}
	}
	if !found {
		t.Fatal("container not traced")
	}
}

func TestClusterBreakdownRollups(t *testing.T) {
	rep := analyze(t, buildSparkCorpus())
	cb := rep.Breakdown()

	// Fleet rollup: one row per observed component, in display order.
	rows := cb.ComponentRows()
	var comps []string
	for _, r := range rows {
		comps = append(comps, r.Component)
	}
	want := []string{"total", "am", "driver", "executor", "alloc",
		"acquisition", "localization", "launching", "queueing"}
	if len(comps) != len(want) {
		t.Fatalf("components %v, want %v", comps, want)
	}
	for i := range want {
		if comps[i] != want[i] {
			t.Fatalf("components %v, want %v", comps, want)
		}
	}

	// Exact values survive the sketch within its relative error bound.
	for _, r := range rows {
		if r.Component == "total" {
			if r.Count != 1 {
				t.Errorf("total count = %d, want 1", r.Count)
			}
			relErrInBound(t, "total p50", r.P50MS, 11900, cb.Alpha)
		}
	}

	// Per-node rollup of localization: all three on node01.
	byNode := cb.ByNode("localization")
	if s := byNode["node01"]; s == nil || s.Count() != 3 {
		t.Fatalf("localization by node: %v", byNode)
	}
}

func relErrInBound(t *testing.T, name string, got, want, alpha float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
		return
	}
	if re := (got - want) / want; re > alpha || re < -alpha {
		t.Errorf("%s = %v, want %v within %v relative error", name, got, want, alpha)
	}
}

func TestClusterBreakdownMerge(t *testing.T) {
	// Two shards observing the same app merge into double counts, and the
	// merged quantiles match a breakdown that saw everything directly.
	rep := analyze(t, buildSparkCorpus())
	a, b := NewClusterBreakdown(), NewClusterBreakdown()
	a.Observe(rep.Apps[0])
	b.Observe(rep.Apps[0])
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	whole := NewClusterBreakdown()
	whole.Observe(rep.Apps[0])
	whole.Observe(rep.Apps[0])
	ra, rw := a.Rows(), whole.Rows()
	if len(ra) != len(rw) {
		t.Fatalf("row counts differ: %d vs %d", len(ra), len(rw))
	}
	for i := range ra {
		if ra[i] != rw[i] {
			t.Errorf("row %d: merged %+v != whole %+v", i, ra[i], rw[i])
		}
	}
}

func TestWorstGroup(t *testing.T) {
	cb := NewClusterBreakdown()
	addObs := func(node string, ms int64, n int) {
		for i := 0; i < n; i++ {
			cb.Add(Observation{Component: "localization", Node: node, MS: ms})
		}
	}
	addObs("node01", 100, 5)
	addObs("node02", 4000, 5)
	addObs("", 99999, 5)      // unattributed: never the callout
	addObs("node03", 8000, 1) // below minCount
	name, p99, ok := Worst(cb.ByNode("localization"), 2)
	if !ok || name != "node02" {
		t.Fatalf("worst = %q ok=%v, want node02", name, ok)
	}
	relErrInBound(t, "worst p99", p99, 4000, cb.Alpha)
	if _, _, ok := Worst(map[string]*digest.Sketch{}, 1); ok {
		t.Error("empty groups should not produce a callout")
	}
}

// syntheticBreakdown builds a breakdown of exactly nKeys cells spread
// over every component, three queues and nKeys/27+1 nodes, each cell
// holding 50 lognormal delays with exemplars, as -serve's does.
func syntheticBreakdown(nKeys int) *ClusterBreakdown {
	r := rand.New(rand.NewSource(1))
	queues := []string{"adhoc", "default", "etl"}
	cb := NewClusterBreakdown()
	for i := 0; i < nKeys; i++ {
		o := Observation{
			Component: Components[i%len(Components)],
			Queue:     queues[i/len(Components)%len(queues)],
			Node:      fmt.Sprintf("node%03d", i/(len(Components)*len(queues))),
			Instance:  InstSparkExecutor,
		}
		for j := 0; j < 50; j++ {
			o.MS = int64(math.Exp(r.NormFloat64() + 7))
			o.App = fmt.Sprintf("application_1499000000000_%04d", r.Intn(200))
			o.AtMS = int64(j)
			cb.Add(o)
		}
	}
	return cb
}

// TestBreakdownRowsOrderAndValues pins Rows against a direct rendering:
// per-key Quantile reads, sorted by component display order (a
// component outside Components ranks with the first), queue, node,
// instance.
func TestBreakdownRowsOrderAndValues(t *testing.T) {
	cb := syntheticBreakdown(100)
	cb.Add(Observation{Component: "custom", Queue: "zz", MS: 42})
	var want []BreakdownRow
	for k, s := range cb.Sketches {
		want = append(want, BreakdownRow{
			Component: k.Component, Queue: k.Queue, Node: k.Node, Instance: string(k.Instance),
			Count: s.Count(), MeanMS: s.Mean(),
			P50MS: s.Quantile(0.50), P95MS: s.Quantile(0.95), P99MS: s.Quantile(0.99),
			MaxMS: s.Max(),
		})
	}
	rank := func(c string) int {
		if i := slices.Index(Components, c); i >= 0 {
			return i
		}
		return 0
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if rank(a.Component) != rank(b.Component) {
			return rank(a.Component) < rank(b.Component)
		}
		return a.Queue+"\x00"+a.Node+"\x00"+a.Instance < b.Queue+"\x00"+b.Node+"\x00"+b.Instance
	})
	if got := cb.Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Rows() differs from the direct rendering:\n got %+v\nwant %+v", got, want)
	}
}

// BenchmarkBreakdownRows times one /aggregate read of a breakdown the
// size of the live-tail benchmark's (~400 cells).
func BenchmarkBreakdownRows(b *testing.B) {
	cb := syntheticBreakdown(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rowsSink = cb.Rows()
	}
}

var rowsSink []BreakdownRow
