package core

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/log4j"
	"repro/internal/metrics"
)

// This file is the dynamic half of the fast-path equivalence proof: the
// byte-level matcher and the retained regex reference implementation are
// run side by side over the same input and must agree on everything
// observable — events, warnings, error text, and every per-regex hit
// counter. (The static half lives in sdlint's logvocab analyzer, which
// proves each fast rule language-equal to its regex.)

var diffSources = []string{
	"hadoop/yarn-resourcemanager.log",
	"hadoop/yarn-nodemanager-node01.log",
	"userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000001/stderr",
}

// parseUnder runs one offline parse with the chosen matcher and returns
// every observable output.
func parseUnder(ref bool, name string, r io.Reader) (evs []Event, warns []string, errStr string, hits map[string]int64) {
	restore := UseReferenceMatcher(ref)
	defer restore()
	p := NewParser()
	reg := metrics.NewRegistry()
	p.Instrument(reg)
	if err := p.ParseReader(name, r); err != nil {
		errStr = err.Error()
	}
	hits = make(map[string]int64, len(regexNames)+1)
	for _, n := range regexNames {
		hits[n] = reg.Counter("core_parser_hits_total", "regex", n).Value()
	}
	hits["__lines"] = reg.Counter("core_parser_lines_total").Value()
	return p.Events(), p.Warnings(), errStr, hits
}

// diffParsers asserts the two matchers are observationally identical on
// one input file.
func diffParsers(t *testing.T, name string, data []byte) {
	t.Helper()
	diffParsersOn(t, name, data, bytes.NewReader)
}

// diffParsersOn is diffParsers reading through open(data), called once
// per matcher, so a stateful reader splits or fails the reads of both
// the same way.
func diffParsersOn[R io.Reader](t *testing.T, name string, data []byte, open func([]byte) R) {
	t.Helper()
	fe, fw, ferr, fh := parseUnder(false, name, open(data))
	re, rw, rerr, rh := parseUnder(true, name, open(data))
	if ferr != rerr {
		t.Fatalf("%s: error diverges: fast=%q regex=%q", name, ferr, rerr)
	}
	if len(fe) != len(re) {
		t.Fatalf("%s: fast mined %d events, regex %d", name, len(fe), len(re))
	}
	for i := range fe {
		if !reflect.DeepEqual(fe[i], re[i]) {
			t.Fatalf("%s: event %d diverges:\nfast:  %+v\nregex: %+v", name, i, fe[i], re[i])
		}
	}
	if !reflect.DeepEqual(fw, rw) {
		t.Fatalf("%s: warnings diverge:\nfast:  %q\nregex: %q", name, fw, rw)
	}
	if !reflect.DeepEqual(fh, rh) {
		t.Fatalf("%s: hit counters diverge:\nfast:  %v\nregex: %v", name, fh, rh)
	}
}

// diffStreams asserts the two matchers agree through the incremental
// path (which has its own segment splitter replacing bufio.Scanner).
func diffStreams(t *testing.T, sources []string, lines []string) {
	t.Helper()
	run := func(ref bool) (int, int64, string) {
		restore := UseReferenceMatcher(ref)
		defer restore()
		st := NewStream()
		for i, ln := range lines {
			st.Feed(sources[i%len(sources)], ln)
		}
		return st.EventCount(), st.LastEventMS(), st.Report().Format()
	}
	fn, fms, frep := run(false)
	rn, rms, rrep := run(true)
	if fn != rn || fms != rms {
		t.Fatalf("stream diverges: fast=(%d events, last %d) regex=(%d, %d)", fn, fms, rn, rms)
	}
	if frep != rrep {
		t.Fatalf("stream report diverges:\nfast:\n%s\nregex:\n%s", frep, rrep)
	}
}

// FuzzFastVsRegex is the differential fuzz target of the equivalence
// proof: arbitrary bytes — and a deterministically degraded (torn,
// truncated, skewed, garbage-injected) variant of them — go through both
// parser implementations and both stream paths, which must agree byte
// for byte on every output.
func FuzzFastVsRegex(f *testing.F) {
	seedCorpusWorkers(f)
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		name := diffSources[int(n)%len(diffSources)]
		diffParsers(t, name, data)

		// The same bytes after lossy collection (cmd/gencorpus's model),
		// seeded from the fuzzed byte for deterministic variety.
		sink := log4j.NewSink(nil, log4j.Clock{})
		sink.Degrade(log4j.DegradeConfig{
			TruncateProb: 0.2,
			TearProb:     0.2,
			GarbageProb:  0.1,
			SkewMaxMs:    5000,
			Seed:         uint64(n),
		})
		for _, ln := range strings.Split(string(data), "\n") {
			sink.Append(name, ln)
		}
		mangled := strings.Join(sink.Lines(name), "\n")
		diffParsers(t, name, []byte(mangled))

		// Line-interleaved and whole-blob stream feeds: the latter makes
		// the fast path's segment iterator split embedded newlines.
		diffStreams(t, diffSources, strings.Split(string(data), "\n"))
		diffStreams(t, diffSources[int(n)%len(diffSources):], []string{string(data), mangled})
	})
}

// TestFastVsRegexCorpus replays every checked-in corpus file — real
// simulator output, including the model-checker traces and degraded
// variants — through the differential harness as named subtests, so a
// divergence points at the offending file without needing -fuzz.
func TestFastVsRegexCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(e.Name(), func(t *testing.T) {
			for _, src := range diffSources {
				diffParsers(t, src, data)
			}
			diffStreams(t, diffSources, strings.Split(string(data), "\n"))
		})
	}
}

// TestFastVsRegexSplitting pins the file walk's line splitting and error
// contract to the reference scanner's, for daemon and container logs
// alike: CRLF lines, a missing final newline, an empty file, lines one
// byte under and at the 4 MiB cap, and readers that split, cut short or
// fail their reads. A container log whose read fails must drop its
// events but still count the lines and hits read before the failure.
func TestFastVsRegexSplitting(t *testing.T) {
	stamp := func(ms int64, class, msg string) string {
		return log4j.Line{TimeMS: 1499000000000 + ms, Level: log4j.Info, Class: class, Message: msg}.Format()
	}
	const exec = "org.apache.spark.executor.CoarseGrainedExecutorBackend"
	lines := []string{
		stamp(100, exec, "Started daemon with process name: 7@node03"),
		stamp(150, "x.RMAppImpl", "application_1499000000000_0001 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
		stamp(200, exec, "Got assigned task 0"),
		"\tat org.apache.spark.executor.Executor.run(Executor.java:338)",
		stamp(300, "x.NodeManager", "Container container_1499000000000_0001_01_000002 transitioned from LOCALIZING to SCHEDULED"),
	}
	// pad is a parseable line of exactly n bytes.
	pad := func(n int) string {
		head := stamp(50, exec, "Got assigned task 9 ")
		return head + strings.Repeat("x", n-len(head))
	}
	small := map[string]string{
		"lf":               strings.Join(lines, "\n") + "\n",
		"crlf":             strings.Join(lines, "\r\n") + "\r\n",
		"no-final-newline": strings.Join(lines, "\n"),
		"crlf-no-final":    strings.Join(lines, "\r\n"),
		"empty":            "",
		"blank-lines":      "\n\r\n\n",
		"lone-cr":          "\r",
	}
	long := map[string]string{
		"max-1":         pad(maxLineBytes-1) + "\n" + lines[2] + "\n",
		"max-1-final":   lines[0] + "\n" + pad(maxLineBytes-1),
		"max-1-crlf":    lines[0] + "\r\n" + pad(maxLineBytes-2) + "\r\n",
		"max":           lines[0] + "\n" + lines[1] + "\n" + pad(maxLineBytes) + "\n" + lines[2] + "\n",
		"max-final":     lines[0] + "\n" + pad(maxLineBytes),
		"max-with-cr":   lines[0] + "\r\n" + pad(maxLineBytes-1) + "\r\n",
		"max-first":     pad(maxLineBytes) + "\n",
		"over-max":      lines[2] + "\n" + pad(maxLineBytes+100) + "\n",
		"max-then-more": lines[0] + "\n" + pad(maxLineBytes) + strings.Repeat("\n"+lines[2], 3),
	}
	boom := errors.New("read: input/output error")
	readers := map[string]func([]byte) io.Reader{
		"bytes":    func(b []byte) io.Reader { return bytes.NewReader(b) },
		"data-err": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"timeout":  func(b []byte) io.Reader { return iotest.TimeoutReader(bytes.NewReader(b)) },
		"err":      func([]byte) io.Reader { return iotest.ErrReader(boom) },
		"half-then-err": func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b[:len(b)/2]), iotest.ErrReader(boom))
		},
		"tail-err": func(b []byte) io.Reader { return &tailErrReader{data: b, err: boom} },
		"tail-eof": func(b []byte) io.Reader { return &tailErrReader{data: b, err: io.EOF} },
		"stall": func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b[:len(b)/2]), stallReader{})
		},
		"one-byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
	}
	// Small reads make the scanner rescan its buffer on every read:
	// quadratic in the line length, so the 4 MiB lines skip the readers
	// that split reads small (tail-eof covers data-err's EOF-with-data).
	smallReads := map[string]bool{"one-byte": true, "data-err": true}
	run := func(cases map[string]string, long bool) {
		for cname, data := range cases {
			for rname, open := range readers {
				if long && smallReads[rname] {
					continue
				}
				for _, src := range diffSources {
					t.Run(cname+"/"+rname+"/"+src[:strings.IndexByte(src, '/')], func(t *testing.T) {
						diffParsersOn(t, src, []byte(data), open)
					})
				}
			}
		}
	}
	run(small, false)
	run(long, true)
}

// tailErrReader returns its last bytes together with err, as a failing
// device read may.
type tailErrReader struct {
	data []byte
	err  error
}

func (r *tailErrReader) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		return n, r.err
	}
	return n, nil
}

// stallReader never makes progress: (0, nil) on every read.
type stallReader struct{}

func (stallReader) Read([]byte) (int, error) { return 0, nil }
