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
// any worker count.

// mineFile is one log file to parse: its logical (slash-separated) name
// and a way to open its content.
type mineFile struct {
	name string
	open func() (io.ReadCloser, error)
}

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
	var files []mineFile
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
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
		files = append(files, mineFile{
			name: filepath.ToSlash(rel),
			open: func() (io.ReadCloser, error) { return os.Open(path) },
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mineFiles(files, workers, pl)
}

// MineSink mines an in-memory log sink like Checker.AddSink + Analyze,
// parsing files on up to workers goroutines (0 = GOMAXPROCS).
func MineSink(s *log4j.Sink, workers int) (*Report, error) {
	return MineSinkObserved(s, workers, nil)
}

// MineSinkObserved is MineSink with self-observability attached (see
// MineDirObserved).
func MineSinkObserved(s *log4j.Sink, workers int, pl *obs.Pipeline) (*Report, error) {
	names := s.Files()
	files := make([]mineFile, 0, len(names))
	for _, f := range names {
		f := f
		files = append(files, mineFile{
			name: f,
			open: func() (io.ReadCloser, error) { return io.NopCloser(s.Reader(f)), nil },
		})
	}
	return mineFiles(files, workers, pl)
}

// mineFiles parses every file on a worker pool, merges the per-file
// parsers in file order (events, line/file counts, and warnings — the
// latter replayed occurrence by occurrence so dedup counts match a
// serial parse), then correlates, decomposes in parallel, and builds the
// report.
func mineFiles(files []mineFile, workers int, pl *obs.Pipeline) (*Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(files) {
		workers = len(files)
	}
	if workers < 1 {
		workers = 1
	}

	pl.FilesPending(len(files))
	parsers := make([]*Parser, len(files))
	errs := make([]error, len(files))
	var next, claimed int64 = -1, 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fb fileBuf // this worker's read buffer, reused file to file
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(files) {
					return
				}
				t := pl.Begin()
				r, err := files[i].open()
				if err != nil {
					errs[i] = err
					continue
				}
				opened := pl.Begin()
				p := NewParser()
				err = p.parseFile(files[i].name, r, &fb)
				r.Close()
				parsers[i], errs[i] = p, err
				pl.StageSpan(obs.StageRead, -1, t, opened, 1)
				pl.StageBatch(obs.StageParse, w, opened, p.lines)
				pl.FilesPending(len(files) - int(atomic.AddInt64(&claimed, 1)))
			}
		}()
	}
	wg.Wait()
	pl.FilesPending(0)

	total := 0
	for i, p := range parsers {
		if errs[i] != nil {
			// First error in file order, like the serial walk surfaces.
			return nil, errs[i]
		}
		total += len(p.events)
	}
	merged := NewParser()
	merged.events = make([]Event, 0, total)
	for _, p := range parsers {
		merged.events = append(merged.events, p.events...)
		merged.files += p.files
		merged.lines += p.lines
		merged.warns.absorb(&p.warns)
	}

	tCorr := pl.Begin()
	apps := Correlate(merged.Events())
	tDec := pl.Begin()
	decomposeAll(apps, workers)
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

// decomposeAll runs the (pure, per-app) decomposition over a worker
// pool. Each worker writes only its own apps' Decomp fields, so the
// result is identical to a serial loop.
func decomposeAll(apps []*AppTrace, workers int) {
	if workers > len(apps) {
		workers = len(apps)
	}
	if workers <= 1 {
		for _, a := range apps {
			Decompose(a)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(apps) {
					return
				}
				Decompose(apps[i])
			}
		}()
	}
	wg.Wait()
}
