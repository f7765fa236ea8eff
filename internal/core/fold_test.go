package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/log4j"
)

// refStream is the per-line reference for Stream's incremental fold:
// every matched line appends to its application's event bucket and
// rebuilds the application from the whole bucket with Correlate +
// Decompose. It is quadratic in events per application, and obviously
// right.
type refStream struct {
	buckets    map[ids.AppID][]Event
	apps       map[ids.AppID]*AppTrace
	firstLog   map[ids.ContainerID]bool
	notified   map[ids.AppID]bool
	onComplete func(*AppTrace)
}

func newRefStream(onComplete func(*AppTrace)) *refStream {
	return &refStream{
		buckets: map[ids.AppID][]Event{}, apps: map[ids.AppID]*AppTrace{},
		firstLog: map[ids.ContainerID]bool{}, notified: map[ids.AppID]bool{},
		onComplete: onComplete,
	}
}

// feed absorbs one line and returns the applications it touched.
func (r *refStream) feed(source, raw string) []ids.AppID {
	var touched []ids.AppID
	for _, e := range parseLineEvents(nil, source, raw) {
		switch e.Kind {
		case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
			if !e.Container.IsZero() {
				if r.firstLog[e.Container] {
					continue
				}
				r.firstLog[e.Container] = true
			}
		case FirstTask:
			if a := r.apps[e.App]; a != nil {
				if c := a.Container(e.Container); c != nil && c.FirstTask != 0 {
					continue
				}
			}
		}
		r.buckets[e.App] = append(r.buckets[e.App], e)
		if !slices.Contains(touched, e.App) {
			touched = append(touched, e.App)
		}
	}
	for _, id := range touched {
		a := Correlate(r.buckets[id])[0]
		Decompose(a)
		r.apps[id] = a
		if a.Decomp.Complete && !r.notified[id] {
			r.notified[id] = true
			r.onComplete(a)
		}
	}
	return touched
}

func (r *refStream) report() *Report {
	var apps []*AppTrace
	for _, a := range r.apps {
		apps = append(apps, a)
	}
	sortTracesBySeq(apps)
	var all []Event
	for _, a := range apps {
		all = append(all, r.buckets[a.ID]...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TimeMS < all[j].TimeMS })
	return ReportFrom(apps, all)
}

// completion is one OnComplete delivery: the feed line that fired it,
// the application, and the delivered decomposition.
type completion struct {
	line   int
	app    ids.AppID
	decomp Decomposition
}

// diffFoldReference feeds lines to a Stream and to the per-line
// reference and requires the same completion sequence, the same
// Complete flag for every touched app after every line, byte-identical
// report and attribution JSON, and deeply equal final traces.
func diffFoldReference(t *testing.T, lines []shardLine) {
	t.Helper()
	var got, want []completion
	cur := 0
	st := NewStream()
	stBD := NewClusterBreakdown()
	st.OnComplete(func(a *AppTrace) {
		got = append(got, completion{cur, a.ID, *a.Decomp})
		stBD.Observe(a)
	})
	refBD := NewClusterBreakdown()
	ref := newRefStream(func(a *AppTrace) {
		want = append(want, completion{cur, a.ID, *a.Decomp})
		refBD.Observe(a)
	})
	for i, ln := range lines {
		cur = i
		st.Feed(ln.source, ln.raw)
		for _, id := range ref.feed(ln.source, ln.raw) {
			if g, w := st.Complete(id), ref.apps[id].Decomp.Complete; g != w {
				t.Fatalf("line %d: Complete(%v) = %v, reference %v", i, id, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("completion sequence diverges: %d deliveries, reference %d", len(got), len(want))
	}
	stRep, refRep := st.Report(), ref.report()
	if g, w := st.EventCount(), len(refRep.Events); g != w {
		t.Errorf("EventCount = %d, reference %d", g, w)
	}
	gotJSON, err := stRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := refRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON != wantJSON {
		t.Error("report JSON diverges from the per-line reference")
	}
	for _, pair := range [][2]*ClusterBreakdown{{stBD, refBD}, {stRep.Breakdown(), refRep.Breakdown()}} {
		g, err1 := pair[0].AttributionJSON()
		w, err2 := pair[1].AttributionJSON()
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if g != w {
			t.Error("attribution JSON diverges from the per-line reference")
		}
	}
	for id, a := range ref.apps {
		if !reflect.DeepEqual(st.App(id), a) {
			t.Errorf("trace of %v diverges from the per-line reference", id)
		}
	}
}

// interleaveLines merges per-file line sequences in a seeded random
// order that keeps each file's own order — a live tail of many files,
// whose events reach the stream out of time order.
func interleaveLines(lines []shardLine, seed int64) []shardLine {
	var files []string
	byFile := map[string][]shardLine{}
	for _, ln := range lines {
		if byFile[ln.source] == nil {
			files = append(files, ln.source)
		}
		byFile[ln.source] = append(byFile[ln.source], ln)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]shardLine, 0, len(lines))
	for len(files) > 0 {
		i := rng.Intn(len(files))
		f := files[i]
		out = append(out, byFile[f][0])
		if byFile[f] = byFile[f][1:]; len(byFile[f]) == 0 {
			files = append(files[:i], files[i+1:]...)
		}
	}
	return out
}

// TestStreamFoldMatchesPerLineReference is the fold's differential: the
// golden trees and the synthetic multi-app corpus, fed in file order,
// in time order, and in seeded cross-file interleavings.
func TestStreamFoldMatchesPerLineReference(t *testing.T) {
	feeds := map[string][]shardLine{
		"multiapp/time-order": corpusLines(t, buildMultiAppCorpus(5)),
		"skewed/time-order":   corpusLines(t, skewedCorpus(t)),
		"am-retry/time-order": corpusLines(t, amRetryCorpus()),
	}
	for seed := int64(1); seed <= 3; seed++ {
		feeds[fmt.Sprintf("skewed/interleaved-%d", seed)] = interleaveLines(corpusLines(t, skewedCorpus(t)), seed)
		feeds[fmt.Sprintf("am-retry/interleaved-%d", seed)] = interleaveLines(corpusLines(t, amRetryCorpus()), seed)
	}
	for _, c := range []string{"pristine", "faulted"} {
		lines := goldenTreeLines(t, filepath.Join("testdata", "golden", c, "input"))
		feeds[c+"/file-order"] = lines
		for seed := int64(1); seed <= 3; seed++ {
			feeds[fmt.Sprintf("%s/interleaved-%d", c, seed)] = interleaveLines(lines, seed)
		}
	}
	for name, lines := range feeds {
		t.Run(name, func(t *testing.T) { diffFoldReference(t, lines) })
	}
}

// skewedCorpus is the multi-app corpus with app 2's NodeManager stamps
// two seconds late and app 3's executor logs four seconds early: clock
// skew that turns causal pairs around, so those apps are partial.
func skewedCorpus(t *testing.T) corpus {
	t.Helper()
	cs := buildMultiAppCorpus(4)
	shift := func(pred func(file, line string) bool, deltaMS int64) {
		for f, lines := range cs {
			for i, l := range lines {
				if !pred(f, l) {
					continue
				}
				parsed, err := log4j.ParseLine(l)
				if err != nil {
					t.Fatal(err)
				}
				parsed.TimeMS += deltaMS
				lines[i] = parsed.Format()
			}
		}
	}
	shift(func(f, l string) bool {
		return strings.Contains(f, "nodemanager") && strings.Contains(l, "1499000000000_0002")
	}, 2000)
	shift(func(f, l string) bool {
		return strings.Contains(f, "container_1499000000000_0003_01_00000") && !strings.HasSuffix(filepath.Dir(f), "000001")
	}, -4000)
	return cs
}

// amRetryCorpus adds a second ApplicationMaster attempt to app 1 of the
// multi-app corpus: container 1 of attempt 2 shares the number of the
// first AM and logs later, so the AM choice depends on container order.
func amRetryCorpus() corpus {
	cs := buildMultiAppCorpus(2)
	app := "application_1499000000000_0001"
	am2 := "container_1499000000000_0001_02_000001"
	cs.add("hadoop/yarn-resourcemanager.log", line(6000, "x.RMContainerImpl", am2+" Container Transitioned from NEW to ALLOCATED"))
	cs.add("hadoop/yarn-nodemanager-node02.log", line(6100, "y.ContainerImpl", "Container "+am2+" transitioned from NEW to LOCALIZING"))
	f := "userlogs/" + app + "/" + am2 + "/stderr"
	cs.add(f, line(1000, "org.apache.spark.deploy.yarn.ApplicationMaster", "Preparing Local resources"))
	cs.add(f, line(6500, "org.apache.spark.deploy.yarn.ApplicationMaster", "Registered with ResourceManager as appattempt_1499000000000_0001_000002"))
	return cs
}

// TestStreamAbsorbIsConstantPerLine pins linear-time ingest: absorbing
// one executor FIRST_TASK line costs the same allocations whether its
// application has 16 or 256 containers. The per-line rebuild this fold
// replaced allocated in proportion to the app's size.
func TestStreamAbsorbIsConstantPerLine(t *testing.T) {
	const runs = 10 // AllocsPerRun also makes one warm-up call
	const backend = "org.apache.spark.executor.CoarseGrainedExecutorBackend"
	app := "application_1499000000000_0001"
	stderr := func(n int) string {
		return fmt.Sprintf("userlogs/%s/container_1499000000000_0001_01_%06d/stderr", app, n)
	}
	allocs := func(executors int) float64 {
		s := NewStream()
		rm := "hadoop/yarn-resourcemanager.log"
		s.Feed(rm, line(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))
		s.Feed(rm, line(5100, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"))
		s.Feed(stderr(1), line(1500, "org.apache.spark.deploy.yarn.ApplicationMaster", "Preparing Local resources"))
		s.Feed(stderr(1), line(5100, "org.apache.spark.deploy.yarn.ApplicationMaster", "Registered with ResourceManager as x"))
		for n := 2; n <= executors+1; n++ {
			s.Feed(stderr(n), line(7000+int64(n), backend, "Started daemon"))
		}
		// Complete the app before measuring: later FIRST_TASKs only fold.
		s.Feed(stderr(2), line(12000, backend, "Got assigned task 0"))
		if !s.Complete(mustAppID(t, app)) {
			t.Fatal("fixture app incomplete")
		}
		var srcs, tasks []string
		for n := 3; n <= runs+3; n++ {
			srcs = append(srcs, stderr(n))
			tasks = append(tasks, line(12000+int64(n), backend, fmt.Sprintf("Got assigned task %d", n)))
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			if !s.Feed(srcs[i], tasks[i]) {
				t.Fatal("FIRST_TASK line not absorbed")
			}
			i++
		})
	}
	small, large := allocs(16), allocs(256)
	if large > small+1 {
		t.Fatalf("absorbing one line allocates %.2f times with 256 containers vs %.2f with 16: cost grows with app size", large, small)
	}
	t.Logf("allocs per FIRST_TASK line: %.2f (16 containers), %.2f (256 containers)", small, large)
}

// TestAppStateFoldMatchesCorrelate drives the fold directly: a healthy
// Spark application's events, some dropped, plus random extras — duplicate FIRST_LOGs
// with conflicting instance types, an AM retry sharing container number
// 1, unnamed and named submission summaries, lost containers, zero and
// negative stamps, many timestamp ties — in random arrival orders. After
// every event the Complete predicate must equal Decompose's flag on
// Correlate of the events so far, and the published trace must deeply
// equal Correlate + Decompose.
func TestAppStateFoldMatchesCorrelate(t *testing.T) {
	app := ids.AppID{ClusterTS: 1499000000000, Seq: 1}
	am, am2 := ids.ContainerID{App: app, Attempt: 1, Num: 1}, ids.ContainerID{App: app, Attempt: 2, Num: 1}
	ex1, ex2 := ids.ContainerID{App: app, Attempt: 1, Num: 2}, ids.ContainerID{App: app, Attempt: 1, Num: 3}
	healthy := []Event{
		{Kind: AppSubmitted0, TimeMS: 90, Name: "q", AppType: "SPARK", Queue: "default"},
		{Kind: AppSubmitted, TimeMS: 100}, {Kind: AppAccepted, TimeMS: 110}, {Kind: AttemptRegistered, TimeMS: 500},
		{Kind: ContAllocated, TimeMS: 200, Container: am}, {Kind: ContRunning, TimeMS: 300, Container: am, Node: "node01"},
		{Kind: DriverFirstLog, TimeMS: 300, Container: am, Instance: InstSparkDriver},
		{Kind: DriverRegister, TimeMS: 500, Container: am},
		{Kind: ContRunning, TimeMS: 600, Container: ex1}, {Kind: ContRunning, TimeMS: 600, Container: ex2},
		{Kind: ExecutorFirstLog, TimeMS: 700, Container: ex1, Instance: InstSparkExecutor},
		{Kind: ExecutorFirstLog, TimeMS: 800, Container: ex2, Instance: InstSparkExecutor},
		{Kind: FirstTask, TimeMS: 900, Container: ex1}, {Kind: FirstTask, TimeMS: 950, Container: ex2},
		{Kind: AppFinished, TimeMS: 2000},
	}
	cons := []ids.ContainerID{am, am2, ex1, ex2}
	appKinds := []Kind{AppSubmitted0, AppSubmitted, AppAccepted, AttemptRegistered, AppFinished}
	conKinds := []Kind{ContAllocated, ContAcquired, ContLocalizing, ContScheduled, LaunchInvoked,
		ContRunning, DriverFirstLog, ExecutorFirstLog, TaskFirstLog, FirstTask, ContExited,
		ContReleased, ContLost, OppQueued, DriverRegister, StartAllo, EndAllo, ContAssigned}
	insts := []InstanceType{InstUnknown, InstSparkDriver, InstSparkExecutor, InstMRMap}
	stamps := []int64{-50, 0, 100, 200, 300, 500, 600, 700, 800, 900, 950, 1200}
	pick := func(rng *rand.Rand, s []string) string { return s[rng.Intn(len(s))] }
	completions := 0
	check := func(name string, evs []Event, rng *rand.Rand) {
		for i := range evs {
			evs[i].App = app
			if !evs[i].Container.IsZero() {
				evs[i].Container.App = app
			}
		}
		st := &appState{t: AppTrace{ID: app}, cons: map[ids.ContainerID]*conState{}}
		for i, e := range evs {
			st.fold(e)
			want := Correlate(evs[:i+1])[0]
			Decompose(want)
			if got := st.completeNow(); got != want.Decomp.Complete {
				t.Fatalf("%s, event %d: Complete predicate %v, Decompose says %v (%v)",
					name, i, got, want.Decomp.Complete, want.Decomp.Anomalies)
			}
			if want.Decomp.Complete {
				completions++
			}
			if rng.Intn(3) == 0 || i == len(evs)-1 {
				if got := st.view(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, event %d: published trace diverges from Correlate:\n%#v\n%#v", name, i, got, want)
				}
			}
		}
	}
	// The AM container, once complete, is reclassified as an executor by
	// an earlier-stamped FIRST_LOG: the app loses its AM.
	check("am reclassified", []Event{
		{Kind: AppSubmitted, TimeMS: 100}, {Kind: AttemptRegistered, TimeMS: 500},
		{Kind: DriverFirstLog, TimeMS: 300, Container: am}, {Kind: DriverRegister, TimeMS: 500, Container: am},
		{Kind: ExecutorFirstLog, TimeMS: 700, Container: ex1, Instance: InstSparkExecutor},
		{Kind: FirstTask, TimeMS: 900, Container: ex1},
		{Kind: ExecutorFirstLog, TimeMS: 250, Container: am, Instance: InstSparkExecutor},
	}, rand.New(rand.NewSource(0)))
	for seed := int64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var evs []Event
		for _, e := range healthy {
			if rng.Intn(8) != 0 {
				evs = append(evs, e)
			}
		}
		for i, n := 0, rng.Intn(10); i < n; i++ {
			e := Event{TimeMS: stamps[rng.Intn(len(stamps))]}
			if rng.Intn(4) == 0 {
				e.Kind = appKinds[rng.Intn(len(appKinds))]
				e.Name = pick(rng, []string{"", "", "q1", "q2"})
				e.AppType, e.Queue = pick(rng, []string{"", "SPARK", "MR"}), pick(rng, []string{"", "default"})
			} else {
				e.Kind = conKinds[rng.Intn(len(conKinds))]
				e.Container = cons[rng.Intn(len(cons))]
				e.Instance = insts[rng.Intn(len(insts))]
				e.Node = pick(rng, []string{"", "", "node01", "node02"})
			}
			evs = append(evs, e)
		}
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })

		check(fmt.Sprintf("seed %d", seed), evs, rng)
	}
	if completions == 0 {
		t.Fatal("no random prefix was complete; the predicate went untested")
	}
}
