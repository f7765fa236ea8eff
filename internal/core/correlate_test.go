package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ids"
)

// refCorrelate is the single-pass Correlate that the per-app correlate
// replaced, kept as its reference: one stable time sort over every
// event, then one walk folding each event into its app and container.
func refCorrelate(events []Event) []*AppTrace {
	apps := make(map[ids.AppID]*AppTrace)
	for _, i := range timeOrder(events) {
		e := events[i]
		a := apps[e.App]
		if a == nil {
			a = &AppTrace{ID: e.App, byCID: make(map[ids.ContainerID]*ContainerTrace)}
			apps[e.App] = a
		}
		a.Events = append(a.Events, e)
		var c *ContainerTrace
		if !e.Container.IsZero() {
			c = a.byCID[e.Container]
			if c == nil {
				c = &ContainerTrace{ID: e.Container}
				a.byCID[e.Container] = c
				a.Containers = append(a.Containers, c)
			}
			c.Events = append(c.Events, e)
		}
		foldEvent(a, c, e)
	}
	out := make([]*AppTrace, 0, len(apps))
	for _, a := range apps {
		slices.SortStableFunc(a.Containers, byContainerNum)
		out = append(out, a)
	}
	sortTracesBySeq(out)
	return out
}

// TestCorrelateMatchesReference diffs the bucketed, per-app correlate
// against refCorrelate at several worker counts: the traces must be
// deeply equal — every event list, the container order and every folded
// field. The inputs are the golden trees and the multi-app corpus in
// file order, plus seeded shuffles of them with timestamps coarsened to
// whole seconds, so that ties across apps and within one container put
// the stable-tie rule (ties in input order) to work.
func TestCorrelateMatchesReference(t *testing.T) {
	inputs := map[string][]Event{}
	for _, name := range []string{"pristine", "faulted"} {
		p := NewParser()
		if err := p.ParseDir(filepath.Join("testdata", "golden", name, "input")); err != nil {
			t.Fatal(err)
		}
		inputs[name] = p.Events()
	}
	ck := New()
	if err := ck.AddSink(corpusSink(t, buildMultiAppCorpus(4))); err != nil {
		t.Fatal(err)
	}
	inputs["multi-app"] = ck.parser.Events()

	for _, name := range []string{"pristine", "faulted", "multi-app"} {
		for seed := int64(1); seed <= 3; seed++ {
			evs := slices.Clone(inputs[name])
			rng := rand.New(rand.NewSource(seed))
			rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
			for i := range evs {
				evs[i].TimeMS -= evs[i].TimeMS % 1000
			}
			crossApp, inContainer := tieKinds(evs)
			if !inContainer || !crossApp && len(refCorrelate(evs)) > 1 {
				t.Fatalf("%s seed %d: coarsening left ties missing (across apps %v, within a container %v)", name, seed, crossApp, inContainer)
			}
			inputs[fmt.Sprintf("%s/shuffled-coarse-%d", name, seed)] = evs
		}
	}

	for name, evs := range inputs {
		want := refCorrelate(evs)
		if len(want) == 0 {
			t.Fatalf("%s: no apps", name)
		}
		for _, w := range []int{1, 2, 3, 8} {
			got := correlate(evs, w)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, workers=%d: correlate diverges from refCorrelate", name, w)
			}
		}
		if got := Correlate(evs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Correlate diverges from refCorrelate", name)
		}
	}
}

// tieKinds reports whether some timestamp is shared by events of two
// apps, and whether some container has two events with one timestamp.
func tieKinds(evs []Event) (crossApp, inContainer bool) {
	type conTime struct {
		c  ids.ContainerID
		ms int64
	}
	firstApp := map[int64]ids.AppID{}
	seen := map[conTime]bool{}
	for _, e := range evs {
		if a, ok := firstApp[e.TimeMS]; !ok {
			firstApp[e.TimeMS] = e.App
		} else if a != e.App {
			crossApp = true
		}
		if !e.Container.IsZero() {
			k := conTime{e.Container, e.TimeMS}
			inContainer = inContainer || seen[k]
			seen[k] = true
		}
	}
	return crossApp, inContainer
}
