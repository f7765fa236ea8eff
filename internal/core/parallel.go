package core

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/log4j"
	"repro/internal/obs"
)

// The parallel offline miner: parsing dominates SDchecker's wall time
// (regex extraction over every log line), and files are independent
// until correlation, so MineDir/MineSink fan the files of a log tree out
// to worker goroutines and merge the per-file results back in file
// order. The merged event slice is exactly what one serial Parser over
// the same files in the same order would have produced, so the report —
// including its JSON export — is byte-identical to Checker.Analyze for
// any worker count. No stage after the file list runs alone: the
// directory walk streams files to the workers as it finds them, and
// correlation, decomposition and JSON rendering fan out per app.

// mineFile is one log file to parse: its logical (slash-separated) name
// and a way to open its content.
type mineFile struct {
	name string
	open func() (io.ReadCloser, error)
}

// fileSource hands each file to mine to yield, in merge order, stopping
// early once yield returns false. Its error (a failed directory walk)
// comes after every file it yielded in that order.
type fileSource func(yield func(mineFile) bool) error

// MineDir mines a log directory tree like Checker.AddDir + Analyze, but
// parses files on up to workers goroutines (0 = GOMAXPROCS). The report
// is byte-identical to the serial checker's regardless of worker count.
func MineDir(dir string, workers int) (*Report, error) {
	return MineDirObserved(dir, workers, nil)
}

// MineDirObserved is MineDir with self-observability attached: per-file
// read/parse stage timings, decompose/aggregate phase spans, and the
// pending-files gauge land in pl. A nil pipeline makes it exactly
// MineDir (every instrumentation call is a nil-safe no-op, so the
// unobserved path stays benchmark-neutral).
func MineDirObserved(dir string, workers int, pl *obs.Pipeline) (*Report, error) {
	walk := func(yield func(mineFile) bool) error {
		return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			rel, rerr := filepath.Rel(dir, path)
			if rerr != nil {
				rel = path
			}
			f := mineFile{
				name: filepath.ToSlash(rel),
				open: func() (io.ReadCloser, error) { return os.Open(path) },
			}
			if !yield(f) {
				return filepath.SkipAll
			}
			return nil
		})
	}
	return mineFiles(walk, workers, pl)
}

// MineSink mines an in-memory log sink like Checker.AddSink + Analyze,
// parsing files on up to workers goroutines (0 = GOMAXPROCS).
func MineSink(s *log4j.Sink, workers int) (*Report, error) {
	return MineSinkObserved(s, workers, nil)
}

// MineSinkObserved is MineSink with self-observability attached (see
// MineDirObserved).
func MineSinkObserved(s *log4j.Sink, workers int, pl *obs.Pipeline) (*Report, error) {
	names := func(yield func(mineFile) bool) error {
		for _, f := range s.Files() {
			open := func() (io.ReadCloser, error) { return io.NopCloser(s.Reader(f)), nil }
			if !yield(mineFile{name: f, open: open}) {
				break
			}
		}
		return nil
	}
	return mineFiles(names, workers, pl)
}

// mined is one file's parse, filled in by the worker that claimed it.
type mined struct {
	p   *Parser
	err error
}

// mineFiles parses every file src yields on a worker pool while src is
// still producing — for MineDir the walk runs on the calling goroutine
// and hands each file over a bounded channel as soon as it is found.
// It then merges the per-file parsers in yield order (events, line/file
// counts, and warnings — the latter replayed occurrence by occurrence so
// dedup counts match a serial parse), correlates and decomposes per app
// on the pool, and builds the report.
func mineFiles(src fileSource, workers int, pl *obs.Pipeline) (*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type job struct {
		f   mineFile
		out *mined
	}
	// The walk yields files in bursts, a directory at a time; a few dozen
	// queued files per worker let it run ahead instead of handing over
	// one file per context switch.
	jobs := make(chan job, 64*workers)
	// pending counts files yielded but not yet claimed; failed stops the
	// source once any file has failed, since a later file cannot win.
	var pending atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fb fileBuf // this worker's read buffer, reused file to file
			for j := range jobs {
				pl.FilesPending(int(pending.Add(-1)))
				t := pl.Begin()
				r, err := j.f.open()
				if err != nil {
					j.out.err = err
					failed.Store(true)
					continue
				}
				opened := pl.Begin()
				p := NewParser()
				err = p.parseFile(j.f.name, r, &fb)
				r.Close()
				j.out.p, j.out.err = p, err
				if err != nil {
					failed.Store(true)
				}
				pl.StageSpan(obs.StageRead, -1, t, opened, 1)
				pl.StageBatch(obs.StageParse, w, opened, p.lines)
			}
		}()
	}
	var files []*mined
	srcErr := src(func(f mineFile) bool {
		if failed.Load() {
			return false
		}
		out := new(mined)
		files = append(files, out)
		pl.FilesPending(int(pending.Add(1)))
		jobs <- job{f, out}
		return true
	})
	close(jobs)
	wg.Wait()
	pl.FilesPending(0)

	// First error in yield order, like the serial walk surfaces: a file's
	// error, else the source's, which follows every file it yielded.
	total := 0
	for _, m := range files {
		if m.err != nil {
			return nil, m.err
		}
		total += len(m.p.events)
	}
	if srcErr != nil {
		return nil, srcErr
	}
	merged := NewParser()
	merged.events = make([]Event, 0, total)
	for _, m := range files {
		p := m.p
		merged.events = append(merged.events, p.events...)
		merged.files += p.files
		merged.lines += p.lines
		merged.warns.absorb(&p.warns)
	}

	tCorr := pl.Begin()
	apps := correlate(merged.Events(), workers)
	tDec := pl.Begin()
	forEach(len(apps), workers, func(i int) { Decompose(apps[i]) })
	tRep := pl.Begin()
	r := buildReport(apps, merged.Events())
	r.Warnings = merged.Warnings()
	r.FilesParsed, r.LinesParsed = merged.Stats()
	// Correlation and report building bracket the decompose phase; both
	// fold into the aggregate stage.
	pl.StageSpan(obs.StageAggregate, -1, tCorr, tDec, len(merged.events))
	pl.StageSpan(obs.StageDecompose, -1, tDec, tRep, len(apps))
	pl.StageBatch(obs.StageAggregate, -1, tRep, len(apps))
	return r, nil
}

// forEach calls fn(i) for every i in [0, n) on up to workers goroutines
// and returns once every call has. Calls for different i must touch
// disjoint state; the result is then that of a serial loop.
func forEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
