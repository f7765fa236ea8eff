//go:build !race

package core_test

import (
	"regexp"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/log4j"
	"repro/internal/spark"
)

// Allocation regression test for offline mining: once a worker's read
// buffer has grown, a container log costs its parser, its events and
// their cloned strings — not a fresh 64 KiB line buffer per file. The
// figure is a whole mine's heap bytes (walk, open, read, parse,
// correlate, report) over the container logs of a 64-executor run,
// mined on their own so the daemon logs' per-container events do not
// blur it. Excluded under -race because the detector's instrumentation
// perturbs the counts.

var containerPath = regexp.MustCompile(`container_\d+_\d+_\d+_\d+`)

// containerLogs simulates two 64-executor applications and returns a
// sink holding only their container logs, and how many there are.
func containerLogs(t *testing.T) (*log4j.Sink, int) {
	t.Helper()
	tr := experiments.DefaultTraceRun(2)
	tr.MutateSpark = func(_ int, cfg *spark.Config) { cfg.Executors = 64 }
	s, rep := tr.Run()
	if len(rep.Apps) != 2 {
		t.Fatalf("simulated %d apps, want 2", len(rep.Apps))
	}
	out := log4j.NewSink(nil, log4j.Clock{})
	n := 0
	for _, f := range s.Sink.Files() {
		if !containerPath.MatchString(f) {
			continue
		}
		n++
		for _, l := range s.Sink.Lines(f) {
			out.Append(f, l)
		}
	}
	if n < 100 {
		t.Fatalf("only %d container logs; the tree is not wide", n)
	}
	return out, n
}

// heapBytes returns the bytes mine allocates, after one warm-up run.
func heapBytes(t *testing.T, mine func() (*core.Report, error)) uint64 {
	t.Helper()
	if _, err := mine(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := mine()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilesParsed == 0 {
		t.Fatal("mined no files")
	}
	return after.TotalAlloc - before.TotalAlloc
}

func TestMineAllocPerContainerFile(t *testing.T) {
	sink, files := containerLogs(t)
	dir := t.TempDir()
	if err := sink.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	const budget = 8 << 10 // bytes per container file
	for _, tc := range []struct {
		name string
		mine func() (*core.Report, error)
	}{
		{"MineDir", func() (*core.Report, error) { return core.MineDir(dir, 1) }},
		{"MineSink", func() (*core.Report, error) { return core.MineSink(sink, 1) }},
	} {
		per := heapBytes(t, tc.mine) / uint64(files)
		t.Logf("%s: %d B per container file (%d container logs)", tc.name, per, files)
		if per > budget {
			t.Errorf("%s: %d B allocated per container file, budget %d: a per-file buffer is back", tc.name, per, budget)
		}
	}
}
