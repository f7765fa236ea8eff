package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"time"

	"repro/internal/core"
)

// mineResult is one offline mining run: log directory on disk to a
// rendered Report.JSON().
type mineResult struct {
	wall   time.Duration
	alloc  uint64 // heap bytes allocated during the run
	digest string
	report *core.Report
}

// mine runs the analyst's path, core.MineDir then Report.JSON(), as
// `sdchecker -dir <dir> -json -workers <workers>` does. It starts from a
// collected heap, so no run pays for an earlier one's garbage.
func mine(dir string, workers int) (mineResult, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	rep, err := core.MineDir(dir, workers)
	if err != nil {
		return mineResult{}, err
	}
	js, err := rep.JSON()
	if err != nil {
		return mineResult{}, err
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return mineResult{wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, digest: digest(js), report: rep}, nil
}

var containerInPath = regexp.MustCompile(`container_\d+_\d+_\d+_\d+`)

// stagedCounts is the work each layer of one staged mine did.
type stagedCounts struct {
	readFiles, readBytes             int
	contFiles, contLines             int
	contAlloc                        uint64
	daemonLines, daemonEvents        int
	daemonMallocs                    uint64
	corrEvents, corrApps, decompApps int
	jsonBytes                        int
	digest                           string
}

// stagedMine is the offline path split into the public calls of each
// layer, serially, with a span around every call when rec is non-nil:
// walk and read every file (core.read), Parser.ParseReader per file
// (core.parse.container / core.parse.daemon), Correlate, Decompose per
// app, ReportFrom, Report.JSON. Files are read before any is parsed so
// that each parse group's heap allocation can be measured on its own;
// the parser gets a sized reader, so copying the bytes it keeps is
// parse work, as it is when MineDir hands it the open file.
func stagedMine(dir string, rec *recorder, parent int) (stagedCounts, error) {
	var c stagedCounts
	root := rec.begin(parent, "offline.staged")
	defer rec.end(root)

	type file struct {
		name string
		data []byte
	}
	var files []file
	id := rec.begin(root, "core.read")
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files = append(files, file{name: filepath.ToSlash(rel)})
		return nil
	})
	rec.end(id)
	if err != nil {
		return c, err
	}
	for i := range files {
		id := rec.begin(root, "core.read")
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(files[i].name)))
		rec.end(id)
		if err != nil {
			return c, err
		}
		files[i].data = data
		c.readBytes += len(data)
	}
	c.readFiles = len(files)

	// Heap counters are sampled only where the file kind changes, so a
	// tree whose daemon and container logs are contiguous costs four
	// samples per pass.
	var events []core.Event
	var ms runtime.MemStats
	prevKind := -1
	var startAlloc, startMallocs uint64
	flush := func() {
		if prevKind < 0 || rec == nil {
			return
		}
		runtime.ReadMemStats(&ms)
		if prevKind == 1 {
			c.contAlloc += ms.TotalAlloc - startAlloc
		} else {
			c.daemonMallocs += ms.Mallocs - startMallocs
		}
	}
	for _, f := range files {
		kind, name := 0, "core.parse.daemon"
		if containerInPath.MatchString(f.name) {
			kind, name = 1, "core.parse.container"
		}
		if kind != prevKind {
			flush()
			if rec != nil {
				runtime.ReadMemStats(&ms)
				startAlloc, startMallocs = ms.TotalAlloc, ms.Mallocs
			}
			prevKind = kind
		}
		p := core.NewParser()
		id := rec.begin(root, name)
		err := p.ParseReader(f.name, bytes.NewReader(f.data))
		rec.end(id)
		if err != nil {
			return c, err
		}
		_, lines := p.Stats()
		evs := p.Events()
		if kind == 1 {
			c.contFiles++
			c.contLines += lines
		} else {
			c.daemonLines += lines
			c.daemonEvents += len(evs)
		}
		events = append(events, evs...)
	}
	flush()

	id = rec.begin(root, "core.correlate")
	apps := core.Correlate(events)
	rec.end(id)
	c.corrEvents, c.corrApps = len(events), len(apps)

	id = rec.begin(root, "core.decompose")
	for _, a := range apps {
		core.Decompose(a)
	}
	rec.end(id)
	c.decompApps = len(apps)

	id = rec.begin(root, "core.report")
	rep := core.ReportFrom(apps, events)
	rec.end(id)

	id = rec.begin(root, "core.render.json")
	js, err := rep.JSON()
	rec.end(id)
	if err != nil {
		return c, err
	}
	c.jsonBytes = len(js)
	c.digest = digest(js)
	return c, nil
}
