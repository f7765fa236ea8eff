package testkit

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/log4j"
	"repro/internal/sim"
)

// OracleInput is one log tree to validate: the sink holding the run's
// logs, and (optionally) the simulator's ground-truth span recorder.
type OracleInput struct {
	Name string
	Sink *log4j.Sink

	// Truth, when set, enables the ground-truth containment check:
	// every mined delay-component span must fall within its recorded
	// counterpart on the same (application, container, name) track.
	// Leave nil for degraded-log runs — per-file clock skew moves mined
	// timestamps off the simulator's timeline by design.
	Truth   *sim.Recorder
	EpochMS int64 // wall-clock epoch of sim time 0 (shifts Truth spans)

	// RequireSpans lists span names the mined trace must contain (e.g.
	// the full shared vocabulary for a healthy Spark run).
	RequireSpans []string
}

// DiffOracle is a differential test harness for the parallel mining
// pipeline: for each worker count it checks that MineSink renders byte
// for byte what the serial Checker renders, that a ShardedStream fed
// the sink's lines renders byte for byte what a serial Stream renders
// (with losslessly merged breakdown sketches), that the byte-level fast
// matcher and the retained regex reference render byte-identical
// reports, and — when ground truth is supplied — that the mined spans
// are contained in the simulator's recorded spans.
//
// Streams are fed in two orders: file by file, and a seeded cross-file
// interleaving that keeps each file's own order (a live tail of many
// files, whose events arrive out of time order). The interleaved serial
// stream must render the file-order report; its completion-hook
// attribution, which sees apps at the moment they complete, is the
// reference for the interleaved sharded streams.
type DiffOracle struct {
	// Workers are the parallel worker counts to diff (default 2, 3, 8).
	Workers []int
}

// Check runs the full differential suite and returns the serial
// checker's report (the reference all parallel paths were diffed
// against) for any further scenario-specific assertions.
func (o DiffOracle) Check(t testing.TB, in OracleInput) *core.Report {
	t.Helper()
	workers := o.Workers
	if len(workers) == 0 {
		workers = []int{2, 3, 8}
	}

	// Reference: the serial offline checker.
	ck := core.New()
	if err := ck.AddSink(in.Sink); err != nil {
		t.Fatalf("%s: AddSink: %v", in.Name, err)
	}
	ref := ck.Analyze()
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatalf("%s: reference JSON: %v", in.Name, err)
	}
	refAttr, err := ref.Breakdown().AttributionJSON()
	if err != nil {
		t.Fatalf("%s: reference attribution JSON: %v", in.Name, err)
	}

	// Reference: the serial stream, fed the sink's lines in file order,
	// with a completion-hook breakdown sketch.
	st := core.NewStream()
	refBD := core.NewClusterBreakdown()
	st.OnComplete(func(a *core.AppTrace) { refBD.Observe(a) })
	for _, f := range in.Sink.Files() {
		for _, l := range in.Sink.Lines(f) {
			st.Feed(f, l)
		}
	}
	stJSON, err := st.Report().JSON()
	if err != nil {
		t.Fatalf("%s: serial stream JSON: %v", in.Name, err)
	}
	stAttr, err := refBD.AttributionJSON()
	if err != nil {
		t.Fatalf("%s: serial stream attribution JSON: %v", in.Name, err)
	}

	// Reference: the serial stream fed the seeded interleaving. The final
	// report depends only on the lines, not on their arrival order.
	mixed := interleave(in.Sink, 1)
	st = core.NewStream()
	mixedBD := core.NewClusterBreakdown()
	st.OnComplete(func(a *core.AppTrace) { mixedBD.Observe(a) })
	for _, l := range mixed {
		st.Feed(l.file, l.text)
	}
	if got, err := st.Report().JSON(); err != nil {
		t.Fatalf("%s: interleaved stream JSON: %v", in.Name, err)
	} else if got != stJSON {
		t.Errorf("%s: stream fed an interleaved tail diverges from the file-order stream", in.Name)
	}
	mixedAttr, err := mixedBD.AttributionJSON()
	if err != nil {
		t.Fatalf("%s: interleaved stream attribution JSON: %v", in.Name, err)
	}

	// Cross-implementation diff: the whole suite above ran on the
	// byte-level fast matcher (the default); re-running the two serial
	// references on the retained regex implementation must reproduce the
	// same bytes, making every oracle scenario also a matcher-equivalence
	// scenario.
	func() {
		defer core.UseReferenceMatcher(true)()
		ck := core.New()
		if err := ck.AddSink(in.Sink); err != nil {
			t.Fatalf("%s: AddSink (regex matcher): %v", in.Name, err)
		}
		got, err := ck.Analyze().JSON()
		if err != nil {
			t.Fatalf("%s: regex-matcher JSON: %v", in.Name, err)
		}
		if got != refJSON {
			t.Errorf("%s: regex matcher diverges from fast matcher (offline checker)", in.Name)
		}
		st := core.NewStream()
		bd := core.NewClusterBreakdown()
		st.OnComplete(func(a *core.AppTrace) { bd.Observe(a) })
		for _, f := range in.Sink.Files() {
			for _, l := range in.Sink.Lines(f) {
				st.Feed(f, l)
			}
		}
		if got, err := st.Report().JSON(); err != nil {
			t.Fatalf("%s: regex-matcher stream JSON: %v", in.Name, err)
		} else if got != stJSON {
			t.Errorf("%s: regex matcher diverges from fast matcher (stream)", in.Name)
		}
		if attr, err := bd.AttributionJSON(); err != nil {
			t.Fatalf("%s: regex-matcher attribution JSON: %v", in.Name, err)
		} else if attr != stAttr {
			t.Errorf("%s: regex matcher diverges from fast matcher (attribution)", in.Name)
		}
	}()

	for _, w := range workers {
		// Parallel offline mining == serial checker, byte for byte.
		rep, err := core.MineSink(in.Sink, w)
		if err != nil {
			t.Fatalf("%s: MineSink(workers=%d): %v", in.Name, w, err)
		}
		got, err := rep.JSON()
		if err != nil {
			t.Fatalf("%s: MineSink(workers=%d) JSON: %v", in.Name, w, err)
		}
		if got != refJSON {
			t.Errorf("%s: MineSink(workers=%d) diverges from serial checker", in.Name, w)
		}
		if !reflect.DeepEqual(rep.Breakdown().Rows(), ref.Breakdown().Rows()) {
			t.Errorf("%s: MineSink(workers=%d) breakdown diverges", in.Name, w)
		}
		// Attribution state (exemplar reservoirs + heavy-hitter top-k)
		// must merge to the same bytes at any worker count.
		if attr, err := rep.Breakdown().AttributionJSON(); err != nil {
			t.Fatalf("%s: MineSink(workers=%d) attribution JSON: %v", in.Name, w, err)
		} else if attr != refAttr {
			t.Errorf("%s: MineSink(workers=%d) attribution diverges from serial checker", in.Name, w)
		}

		// Parallel streaming == serial streaming, byte for byte, with a
		// lossless sketch merge, in both feed orders.
		var fileOrder []line
		for _, f := range in.Sink.Files() {
			for _, l := range in.Sink.Lines(f) {
				fileOrder = append(fileOrder, line{f, l})
			}
		}
		o.checkSharded(t, in.Name+" (file order)", w, fileOrder, stJSON, refBD, stAttr)
		o.checkSharded(t, in.Name+" (interleaved)", w, mixed, stJSON, mixedBD, mixedAttr)
	}

	if in.Truth != nil {
		o.checkContainment(t, in, ref)
	}
	if len(in.RequireSpans) > 0 {
		seen := map[string]bool{}
		for _, a := range ref.Apps {
			for _, sp := range core.AppSpans(a) {
				seen[sp.Name] = true
			}
		}
		for _, want := range in.RequireSpans {
			if !seen[want] {
				t.Errorf("%s: mined trace missing span %q", in.Name, want)
			}
		}
	}
	return ref
}

// checkSharded feeds lines to a ShardedStream with w workers and diffs
// its report, merged breakdown rows and attribution against the serial
// stream's.
func (o DiffOracle) checkSharded(t testing.TB, name string, w int, lines []line, wantJSON string, wantBD *core.ClusterBreakdown, wantAttr string) {
	t.Helper()
	ss := core.NewShardedStream(w)
	defer ss.Close()
	for _, l := range lines {
		ss.Feed(l.file, l.text)
	}
	ss.Quiesce()
	got, err := ss.Report().JSON()
	if err != nil {
		t.Fatalf("%s: ShardedStream(workers=%d) JSON: %v", name, w, err)
	}
	if got != wantJSON {
		t.Errorf("%s: ShardedStream(workers=%d) diverges from serial stream", name, w)
	}
	if !reflect.DeepEqual(ss.Breakdown().Rows(), wantBD.Rows()) {
		t.Errorf("%s: ShardedStream(workers=%d) merged breakdown diverges from serial hook sketch", name, w)
	}
	if attr, err := ss.Breakdown().AttributionJSON(); err != nil {
		t.Fatalf("%s: ShardedStream(workers=%d) attribution JSON: %v", name, w, err)
	} else if attr != wantAttr {
		t.Errorf("%s: ShardedStream(workers=%d) attribution diverges from serial stream", name, w)
	}
}

// line is one log line and the file it belongs to.
type line struct{ file, text string }

// interleave merges the sink's files line by line in a seeded random
// order that keeps each file's own line order.
func interleave(sink *log4j.Sink, seed int64) []line {
	files := append([]string(nil), sink.Files()...)
	next := make(map[string]int, len(files))
	rng := rand.New(rand.NewSource(seed))
	var out []line
	for len(files) > 0 {
		i := rng.Intn(len(files))
		f := files[i]
		lines := sink.Lines(f)
		if next[f] < len(lines) {
			out = append(out, line{f, lines[next[f]]})
			next[f]++
		}
		if next[f] == len(lines) {
			files = append(files[:i], files[i+1:]...)
		}
	}
	return out
}

// checkContainment verifies every mined delay-component span falls
// within a ground-truth span on the same track (the PR 1 fidelity check,
// applied to whatever scenario the oracle is driven with).
func (o DiffOracle) checkContainment(t testing.TB, in OracleInput, rep *core.Report) {
	t.Helper()
	type key struct{ proc, track, name string }
	truth := map[key][][2]int64{}
	for _, sp := range in.Truth.Spans() {
		k := key{sp.Process, sp.Thread, sp.Name}
		truth[k] = append(truth[k], [2]int64{in.EpochMS + int64(sp.Start), in.EpochMS + int64(sp.End)})
	}
	if len(truth) == 0 {
		t.Fatalf("%s: ground-truth recorder captured nothing", in.Name)
	}
	mined := 0
	for _, a := range rep.Apps {
		for _, m := range core.AppSpans(a) {
			mined++
			k := key{m.Process, m.Thread, m.Name}
			within := false
			for _, tr := range truth[k] {
				if tr[0] <= int64(m.Start) && int64(m.End) <= tr[1] {
					within = true
					break
				}
			}
			if !within {
				t.Errorf("%s: mined span %s/%s %q [%d, %d] not within any ground-truth span",
					in.Name, m.Process, m.Thread, m.Name, m.Start, m.End)
			}
		}
	}
	if mined == 0 {
		t.Fatalf("%s: no spans mined from the logs", in.Name)
	}
}
