package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/spark"
)

// tree is one generated log tree: the bytes the program under test
// receives, as lines per file, and the digest its report must render to.
type tree struct {
	files []string            // logical paths, sorted as a directory walk yields them
	lines map[string][]string // file content, one entry per line
	nLine int
	apps  int    // applications submitted
	ref   string // sha256 of the reference Report.JSON()
}

// inputs are one workload's generated inputs: the tree mined offline
// (written under dir) and the tree fed to the live engine (the same
// tree, or a smaller one of the same shape).
type inputs struct {
	dir     string
	offline *tree
	live    *tree
}

// chatter is non-vocabulary daemon-log noise: the IPC, audit, monitor and
// liveness lines that fill production RM/NM logs but that the simulator
// does not emit. None of them mentions an application or container ID.
var chatter = []string{
	" INFO ipc.Server: IPC Server handler %d on 8031: responding to nodeHeartbeat from 10.1.2.%d Call#%d",
	" INFO resourcemanager.RMAuditLogger: USER=hive IP=10.1.2.%d OPERATION=AM Heartbeat q%d RESULT=SUCCESS %d",
	" INFO monitor.ContainersMonitorImpl: Memory usage of ProcessTree %d: %d.3 MB of 2 GB physical used, %d",
	" INFO util.AbstractLivelinessMonitor: Expired:Timer for node%02d:8041 is running, lag %d ms, round %d",
}

// simulate runs the YARN/Spark simulator for one TPC-H trace of apps
// queries at the workload's executors per app and returns its log tree
// with the reference digest: the serial in-memory mine of the clean
// logs, taken before any chatter is added.
func simulate(w workload, apps int, seed uint64) (*tree, error) {
	tr := experiments.DefaultTraceRun(apps)
	tr.Seed = seed
	tr.Opts.Seed = seed
	tr.MutateSpark = func(_ int, cfg *spark.Config) { cfg.Executors = w.executors }
	s, rep := tr.Run()
	if len(rep.Apps) != apps {
		return nil, fmt.Errorf("seed %d: simulator produced %d apps for %d queries", seed, len(rep.Apps), apps)
	}
	for _, a := range rep.Apps {
		if a.Decomp == nil || !a.Decomp.Complete {
			return nil, fmt.Errorf("seed %d: app %s has an incomplete decomposition", seed, a.ID)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		return nil, fmt.Errorf("rendering reference report: %w", err)
	}
	t := &tree{files: s.Sink.Files(), lines: map[string][]string{}, apps: apps, ref: digest(js)}
	sort.Strings(t.files)
	for _, f := range t.files {
		t.lines[f] = s.Sink.Lines(f)
		t.nLine += len(t.lines[f])
	}
	return t, nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func isContainerLog(name string) bool { return strings.HasPrefix(name, "userlogs/") }

// addChatter interleaves chatter into every daemon log: after each
// simulator line, a seeded number of chatter lines drawn uniformly from
// [0, 2*ratio], each stamped with that line's timestamp.
func (t *tree) addChatter(ratio int, seed uint64) {
	rng := rand.New(rand.NewSource(int64(seed ^ 0x5eed_c4a7)))
	for _, f := range t.files {
		if isContainerLog(f) {
			continue
		}
		src := t.lines[f]
		out := make([]string, 0, len(src)*(ratio+1))
		for _, l := range src {
			out = append(out, l)
			if len(l) < stampLen {
				continue
			}
			stamp := l[:stampLen]
			for k := rng.Intn(2*ratio + 1); k > 0; k-- {
				out = append(out, stamp+fmt.Sprintf(chatter[rng.Intn(len(chatter))],
					rng.Intn(64), rng.Intn(250), rng.Intn(1_000_000)))
			}
		}
		t.nLine += len(out) - len(src)
		t.lines[f] = out
	}
}

// dropVocabularyLine removes one RM container-allocation line, chosen by
// seed, after the reference digest was taken: the self-test's proof
// that the output gate catches a tree that no longer matches.
func (t *tree) dropVocabularyLine(seed uint64) {
	const file = "hadoop/yarn-resourcemanager.log"
	var hits []int
	for i, l := range t.lines[file] {
		if strings.Contains(l, "Container Transitioned from NEW to ALLOCATED") {
			hits = append(hits, i)
		}
	}
	if len(hits) == 0 {
		return
	}
	i := hits[int(seed%uint64(len(hits)))]
	ls := t.lines[file]
	t.lines[file] = append(append([]string(nil), ls[:i]...), ls[i+1:]...)
	t.nLine--
}

// write materializes the tree under dir, one file per logical path.
func (t *tree) write(dir string) error {
	for _, f := range t.files {
		path := filepath.Join(dir, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		fh, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(fh)
		for _, l := range t.lines[f] {
			bw.WriteString(l)
			bw.WriteByte('\n')
		}
		if err := bw.Flush(); err != nil {
			fh.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		if err := fh.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", path, err)
		}
	}
	return nil
}

// generate builds a workload's inputs in memory: simulate, add chatter,
// and (for the self-test) corrupt after the reference digest is taken.
func generate(w workload, seed uint64, corrupt bool) (*inputs, error) {
	off, err := simulate(w, w.apps, seed)
	if err != nil {
		return nil, err
	}
	if w.chatter > 0 {
		off.addChatter(w.chatter, seed)
	}
	in := &inputs{offline: off, live: off}
	if w.liveApps != w.apps {
		if in.live, err = simulate(w, w.liveApps, seed); err != nil {
			return nil, err
		}
		if w.chatter > 0 {
			in.live.addChatter(w.chatter, seed)
		}
	}
	if corrupt {
		off.dropVocabularyLine(seed)
		if in.live != off {
			in.live.dropVocabularyLine(seed)
		}
	}
	return in, nil
}

// stampLen is the length of a log4j timestamp, "2017-07-02 12:53:22,486".
const stampLen = 23

// stampKey maps a line's log4j timestamp to an integer that orders like
// the timestamp (not an epoch); ok is false for lines without one.
func stampKey(l string) (int64, bool) {
	if len(l) < stampLen || l[4] != '-' || l[10] != ' ' || l[19] != ',' {
		return 0, false
	}
	var k int64
	for i := 0; i < stampLen; i++ {
		c := l[i]
		switch i {
		case 4, 7, 10, 13, 16, 19:
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		k = k*10 + int64(c-'0')
	}
	return k, true
}

// replay is a tree laid out for the live phase, in feed order: the
// catch-up lines [0, cut) in file order, then the tail in timestamp
// order. The bytes sit in one string indexed by offsets, so the
// benchmark's own copy of the input holds no pointers and costs the
// garbage collector nothing while the live engine is timed.
type replay struct {
	files []string
	blob  string
	off   []int32 // line i is blob[off[i]:off[i+1]]
	file  []int32 // index into files, per line
	cut   int
}

func (r *replay) len() int { return len(r.file) }

func (r *replay) line(i int) (file, raw string) {
	return r.files[r.file[i]], r.blob[r.off[i]:r.off[i+1]]
}

// timeline lays t out for the live phase. Every line gets its file's
// running-maximum timestamp (lines without one inherit the previous
// line's), so each file stays in order; the lines are then ordered by
// (timestamp, file, line). The first half is the catch-up set — the tree
// as it stood at that instant — in file order, as a server starting over
// the directory reads it; the second half is the tail.
func (t *tree) timeline() *replay {
	type ref struct {
		key    int64
		fi, li int32
	}
	all := make([]ref, 0, t.nLine)
	for fi, f := range t.files {
		var last int64
		for li, l := range t.lines[f] {
			if k, ok := stampKey(l); ok && k > last {
				last = k
			}
			all = append(all, ref{key: last, fi: int32(fi), li: int32(li)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.key != b.key {
			return a.key < b.key
		}
		if a.fi != b.fi {
			return a.fi < b.fi
		}
		return a.li < b.li
	})
	cut := len(all) / 2
	head := all[:cut]
	sort.Slice(head, func(i, j int) bool {
		if head[i].fi != head[j].fi {
			return head[i].fi < head[j].fi
		}
		return head[i].li < head[j].li
	})
	r := &replay{files: t.files, off: make([]int32, 1, len(all)+1), file: make([]int32, 0, len(all)), cut: cut}
	var b strings.Builder
	for _, x := range all {
		b.WriteString(t.lines[t.files[x.fi]][x.li])
		r.off = append(r.off, int32(b.Len()))
		r.file = append(r.file, x.fi)
	}
	r.blob = b.String()
	return r
}
