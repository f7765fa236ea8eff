package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/log4j"
)

// buildMultiAppCorpus clones the hand-built Spark corpus into n distinct
// applications (distinct submission sequence numbers), so sharding
// actually spreads work across workers.
func buildMultiAppCorpus(n int) corpus {
	out := corpus{}
	one := buildSparkCorpus()
	for i := 1; i <= n; i++ {
		tag := fmt.Sprintf("1499000000000_%04d", i)
		for f, lines := range one {
			nf := strings.ReplaceAll(f, "1499000000000_0001", tag)
			for _, l := range lines {
				out.add(nf, strings.ReplaceAll(l, "1499000000000_0001", tag))
			}
		}
	}
	return out
}

func corpusSink(t *testing.T, cs corpus) *log4j.Sink {
	t.Helper()
	s := log4j.NewSink(nil, log4j.Clock{})
	for _, f := range sortedKeys(cs) {
		for _, l := range cs[f] {
			s.Append(f, l)
		}
	}
	return s
}

func sortedKeys(cs corpus) []string {
	out := make([]string, 0, len(cs))
	for f := range cs {
		out = append(out, f)
	}
	// Deterministic file order; the miners must not depend on it, but
	// the test fixture should be stable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestMineSinkMatchesChecker pins the parallel miner byte for byte
// against the serial checker over the same sink, at several worker
// counts, including warning lists and file/line statistics. The corpus
// includes a warning-producing file so the occurrence-replayed warning
// merge is exercised, not just the happy path.
func TestMineSinkMatchesChecker(t *testing.T) {
	cs := buildMultiAppCorpus(6)
	// A container log with no parseable lines warns; give it three
	// junk lines so per-file line counts must sum correctly too.
	junk := "userlogs/application_1499000000000_0002/container_1499000000000_0002_01_000009/stderr"
	cs.add(junk, "not a log4j line")
	cs.add(junk, "still not one")
	cs.add(junk, "")

	sink := corpusSink(t, cs)

	ck := New()
	if err := ck.AddSink(sink); err != nil {
		t.Fatalf("AddSink: %v", err)
	}
	ref := ck.Analyze()
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatalf("ref JSON: %v", err)
	}
	if len(ref.Warnings) == 0 {
		t.Fatal("fixture produced no warnings; warning merge untested")
	}

	for _, w := range []int{0, 1, 2, 3, 8} {
		rep, err := MineSink(sink, w)
		if err != nil {
			t.Fatalf("MineSink(workers=%d): %v", w, err)
		}
		got, err := rep.JSON()
		if err != nil {
			t.Fatalf("JSON(workers=%d): %v", w, err)
		}
		if got != refJSON {
			t.Errorf("workers=%d: JSON diverges from serial checker", w)
		}
		if len(rep.Warnings) != len(ref.Warnings) {
			t.Errorf("workers=%d: %d warnings, serial has %d", w, len(rep.Warnings), len(ref.Warnings))
		} else {
			for i := range rep.Warnings {
				if rep.Warnings[i] != ref.Warnings[i] {
					t.Errorf("workers=%d: warning %d = %q, serial %q", w, i, rep.Warnings[i], ref.Warnings[i])
				}
			}
		}
		if rep.FilesParsed != ref.FilesParsed || rep.LinesParsed != ref.LinesParsed {
			t.Errorf("workers=%d: stats files=%d lines=%d, serial files=%d lines=%d",
				w, rep.FilesParsed, rep.LinesParsed, ref.FilesParsed, ref.LinesParsed)
		}
		if rep.Format() != ref.Format() {
			t.Errorf("workers=%d: text report diverges from serial checker", w)
		}
	}
}

// TestMineDirMissing pins the error path: a missing directory fails the
// same way the serial walk does.
func TestMineDirMissing(t *testing.T) {
	if _, err := MineDir("testdata/does-not-exist", 4); err == nil {
		t.Fatal("MineDir on missing dir: want error, got nil")
	}
}

// TestMineDirMatchesCheckerOnDisk pins the streamed walk's order on a
// real directory: MineDir must hand files to the merge in the order the
// serial Checker.AddDir walk parses them, at every worker count. The
// tree puts "a/…" beside "a-b/…" (component-wise order, which the walk
// follows, differs from a whole-path sort: '-' sorts before '/'), holds
// an empty directory, a directory nested three deep and a container
// directory with two files. Junk container logs at the order-sensitive
// paths make the warning list, and every event's Source, record the
// order files were merged in.
func TestMineDirMatchesCheckerOnDisk(t *testing.T) {
	cs := buildMultiAppCorpus(3)
	app := "application_1499000000000_0002"
	cs.add("userlogs/"+app+"/container_1499000000000_0002_01_000002/stdout",
		line(7150, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon with process name: 2001@node01"))
	for _, f := range []string{
		"a/container_1499000000000_0003_01_000007/stderr",
		"a-b/container_1499000000000_0003_01_000008/stderr",
		"deep/er/est/container_1499000000000_0001_01_000009/stderr",
	} {
		cs.add(f, "not a log4j line")
	}
	cs.add("a/x.log", line(100, "x.RMAppImpl", "application_1499000000000_0003 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))
	cs.add("a-b/x.log", line(100, "x.RMAppImpl", "application_1499000000000_0003 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))

	dir := t.TempDir()
	for f, lines := range cs {
		path := filepath.Join(dir, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}

	ck := New()
	if err := ck.AddDir(dir); err != nil {
		t.Fatalf("AddDir: %v", err)
	}
	ref := ck.Analyze()
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Warnings) < 3 {
		t.Fatalf("fixture produced %d warnings; walk order unrecorded", len(ref.Warnings))
	}
	for _, w := range []int{0, 1, 2, 3, 8} {
		rep, err := MineDir(dir, w)
		if err != nil {
			t.Fatalf("MineDir(workers=%d): %v", w, err)
		}
		got, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got != refJSON {
			t.Errorf("workers=%d: JSON diverges from Checker.AddDir", w)
		}
		if !reflect.DeepEqual(rep.Warnings, ref.Warnings) {
			t.Errorf("workers=%d: warnings\n%q\nserial\n%q", w, rep.Warnings, ref.Warnings)
		}
		if rep.FilesParsed != ref.FilesParsed || rep.LinesParsed != ref.LinesParsed {
			t.Errorf("workers=%d: stats files=%d lines=%d, serial files=%d lines=%d",
				w, rep.FilesParsed, rep.LinesParsed, ref.FilesParsed, ref.LinesParsed)
		}
		if !reflect.DeepEqual(rep.Events, ref.Events) {
			t.Errorf("workers=%d: merged events diverge from the serial walk's", w)
		}
	}
}

// emptyLog is an opener for a file with no content.
func emptyLog() (io.ReadCloser, error) { return io.NopCloser(strings.NewReader("")), nil }

// TestMineFilesErrorOrder pins the streamed miner's error contract with
// an injected source: the first error in yield order wins, whether it
// is a file's or the source's own (which follows every file it
// yielded), exactly as the serial walk that stops at its first error.
// Every worker is joined before mineFiles returns: no open is still
// running and the goroutine count falls back.
func TestMineFilesErrorOrder(t *testing.T) {
	errOpen := errors.New("open failed")
	errWalk := errors.New("walk failed")
	var running atomic.Int32
	slow := func(name string) mineFile {
		return mineFile{name: name, open: func() (io.ReadCloser, error) {
			running.Add(1)
			defer running.Add(-1)
			time.Sleep(2 * time.Millisecond)
			return emptyLog()
		}}
	}
	failing := mineFile{name: "hadoop/b.log", open: func() (io.ReadCloser, error) {
		running.Add(1)
		defer running.Add(-1)
		return nil, errOpen
	}}
	cases := []struct {
		name  string
		files []mineFile
		want  error
	}{
		{"open failure before walk failure", []mineFile{slow("hadoop/a.log"), failing, slow("hadoop/c.log")}, errOpen},
		{"walk failure at file 0", nil, errWalk},
		{"walk failure after clean files", []mineFile{slow("hadoop/a.log"), slow("hadoop/c.log")}, errWalk},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2, 8} {
			before := runtime.NumGoroutine()
			src := func(yield func(mineFile) bool) error {
				for _, f := range tc.files {
					if !yield(f) {
						return nil
					}
				}
				return errWalk
			}
			_, err := mineFiles(src, w, nil)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s, workers=%d: err = %v, want %v", tc.name, w, err, tc.want)
			}
			if n := running.Load(); n != 0 {
				t.Errorf("%s, workers=%d: %d opens still running after return", tc.name, w, n)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%s, workers=%d: %d goroutines after return, %d before", tc.name, w, n, before)
			}
		}
	}
}

// TestMineFilesStreams pins the overlap itself: a worker parses the
// first file while the source is still producing, at any worker count.
func TestMineFilesStreams(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		opened := make(chan struct{})
		src := func(yield func(mineFile) bool) error {
			yield(mineFile{name: "hadoop/a.log", open: func() (io.ReadCloser, error) {
				close(opened)
				return emptyLog()
			}})
			select {
			case <-opened:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("no worker opened file 0 while the source was running")
			}
		}
		if _, err := mineFiles(src, w, nil); err != nil {
			t.Errorf("workers=%d: %v", w, err)
		}
	}
}
