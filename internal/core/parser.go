package core

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/ids"
	"repro/internal/log4j"
	"repro/internal/metrics"
)

// matcherRef selects the regexp reference implementation for the mining
// hot path; the default (false) is the byte-level matcher in fastpath.go.
// Each file scan or stream feed loads the flag once, so a concurrent
// toggle never mixes implementations within one line — and since both
// implementations are proven to produce identical output (sdlint
// language equivalence, differential fuzzing, DiffOracle byte-diffs),
// the toggle is observable only through timing and allocation behavior.
var matcherRef atomic.Bool

// UseReferenceMatcher switches the miner between the byte-level fast
// path (false, the default) and the retained regexp implementation
// (true), returning a func that restores the previous setting. It exists
// for differential tests and before/after benchmarks.
func UseReferenceMatcher(on bool) (restore func()) {
	prev := matcherRef.Swap(on)
	return func() { matcherRef.Store(prev) }
}

func referenceMatcher() bool { return matcherRef.Load() }

// Parser mines scheduling-related events from log files. Feed it any
// number of files (daemon logs and per-container stderr files) in any
// order, then hand Events() to the Correlator.
type Parser struct {
	events []Event
	warns  warnSet
	files  int
	lines  int
	met    *parserMetrics

	// cloneMined is set while mining lines sliced from a fileBuf: the
	// fast miners then clone every string an event keeps (daemon
	// matches, container body events, the container's FIRST_LOG line),
	// so no event aliases the reusable buffer or pins a whole file.
	// Streams feed caller-owned line strings and leave it false.
	cloneMined bool
}

// maxDistinctWarnings bounds the warning set: corrupted inputs can
// produce one unique warning per garbage line, which must not exhaust
// memory in -follow/-serve modes. Beyond the cap only a suppression
// counter grows.
const maxDistinctWarnings = 256

// warnSet deduplicates warnings, keeping a repeat count per message and
// a count of messages dropped once the distinct cap is hit.
type warnSet struct {
	order      []string
	count      map[string]int
	suppressed int
}

func (w *warnSet) add(msg string) {
	if w.count == nil {
		w.count = make(map[string]int)
	}
	if n, ok := w.count[msg]; ok {
		w.count[msg] = n + 1
		return
	}
	if len(w.order) >= maxDistinctWarnings {
		w.suppressed++
		return
	}
	w.order = append(w.order, msg)
	w.count[msg] = 1
}

// absorb replays another set's occurrences into w in their original
// order, so merging per-file warn sets file by file reproduces what one
// serial parser over the same files would have kept. The only divergence
// is a single file with more than maxDistinctWarnings distinct messages:
// its own overflow was already collapsed into a suppression count, which
// carries over as-is (display-only; reports never serialize warnings).
func (w *warnSet) absorb(o *warnSet) {
	for _, msg := range o.order {
		for i := o.count[msg]; i > 0; i-- {
			w.add(msg)
		}
	}
	w.suppressed += o.suppressed
}

// render flattens the set back to display strings, annotating repeats
// and the suppressed overflow.
func (w *warnSet) render() []string {
	if len(w.order) == 0 {
		return nil
	}
	out := make([]string, 0, len(w.order)+1)
	for _, msg := range w.order {
		if n := w.count[msg]; n > 1 {
			out = append(out, fmt.Sprintf("%s (x%d)", msg, n))
		} else {
			out = append(out, msg)
		}
	}
	if w.suppressed > 0 {
		out = append(out, fmt.Sprintf("... %d further distinct warnings suppressed", w.suppressed))
	}
	return out
}

// regexNames enumerates the extraction regexes for per-regex hit
// counters; the names are the `regex` label values on
// core_parser_hits_total.
var regexNames = []string{
	"app_summary", "app_state", "rm_container", "nm_container",
	"launch_invoked", "opp_queued", "register", "start_allo", "end_allo",
	"first_task", "first_log", "assigned", "opp_assigned",
}

// parserMetrics are the parser's observability hooks (shared across the
// throwaway parsers a Stream creates per line).
type parserMetrics struct {
	lines *metrics.Counter            // log4j-parseable lines consumed
	hits  map[string]*metrics.Counter // per-regex match counts
}

func newParserMetrics(reg *metrics.Registry) *parserMetrics {
	if reg == nil {
		return nil
	}
	pm := &parserMetrics{
		lines: reg.Counter("core_parser_lines_total"),
		hits:  make(map[string]*metrics.Counter, len(regexNames)),
	}
	for _, n := range regexNames {
		pm.hits[n] = reg.Counter("core_parser_hits_total", "regex", n)
	}
	return pm
}

// Instrument registers the parser's line and per-regex hit counters in
// reg. A nil registry is a no-op.
func (p *Parser) Instrument(reg *metrics.Registry) {
	p.met = newParserMetrics(reg)
}

// hit counts one match of the named extraction regex.
func (p *Parser) hit(re string) {
	if p.met != nil {
		p.met.hits[re].Inc()
	}
}

// countLine counts one successfully parsed log4j line.
func (p *Parser) countLine() {
	if p.met != nil {
		p.met.lines.Inc()
	}
}

// The extraction regexes (§III-A: "parse the logs to extract scheduling
// related messages using regular expression").
var (
	reAppState = regexp.MustCompile(`(application_\d+_\d+) State change from (\w+) to (\w+) on event = (\w+)`)
	reRMCont   = regexp.MustCompile(`(container_\d+_\d+_\d+_\d+) Container Transitioned from (\w+) to (\w+)`)
	reNMCont   = regexp.MustCompile(`Container (container_\d+_\d+_\d+_\d+) transitioned from (\w+) to (\w+)`)
	reInvoke   = regexp.MustCompile(`Invoking launch script for container (container_\d+_\d+_\d+_\d+)`)
	reOppQueue = regexp.MustCompile(`Opportunistic container (container_\d+_\d+_\d+_\d+) queued`)

	reRegister  = regexp.MustCompile(`Registered with (the )?ResourceManager`)
	reStartAllo = regexp.MustCompile(`SDCHECKER START_ALLO`)
	reEndAllo   = regexp.MustCompile(`SDCHECKER END_ALLO`)
	reFirstTask = regexp.MustCompile(`Got assigned task (\d+)`)

	reContainerInPath = regexp.MustCompile(`container_\d+_\d+_\d+_\d+`)
	// reNodeInPath recovers the NodeManager host from its daemon log file
	// name (yarn.NodeManager writes hadoop/yarn-nodemanager-<node>.log).
	reNodeInPath = regexp.MustCompile(`yarn-nodemanager-(.+)\.log$`)

	reAppSummary = regexp.MustCompile(`Application (application_\d+_\d+) submitted: name=(\S+) type=(\S+) queue=(\S+)`)
	// reAssigned mines the scheduler's container-to-host binding, the only
	// RM-side source of per-node attribution.
	reAssigned = regexp.MustCompile(`Assigned container (container_\d+_\d+_\d+_\d+) .*on host (\S+)`)
	// reOppAssigned mines the same binding for opportunistic containers,
	// which the distributed allocator announces with its own phrasing.
	reOppAssigned = regexp.MustCompile(`Allocated opportunistic container (container_\d+_\d+_\d+_\d+) on host (\S+)`)
)

// NewParser returns an empty parser.
func NewParser() *Parser {
	return &Parser{}
}

// Warnings returns non-fatal anomalies found while parsing, deduplicated
// (repeats annotated "(xN)") and capped so arbitrary garbage input cannot
// grow them without bound.
func (p *Parser) Warnings() []string { return p.warns.render() }

// Stats returns (files, lines) consumed so far.
func (p *Parser) Stats() (files, lines int) { return p.files, p.lines }

// Events returns all mined events (unsorted; the Correlator orders them).
func (p *Parser) Events() []Event { return p.events }

func (p *Parser) warnf(format string, args ...any) {
	p.warns.add(fmt.Sprintf(format, args...))
}

// ParseReader consumes one log file. name should be the file's path: when
// it contains a container ID (userlogs/<app>/<container>/stderr), the file
// is treated as a container log and its first parseable line becomes the
// FIRST_LOG event of Table I.
func (p *Parser) ParseReader(name string, r io.Reader) error {
	var fb fileBuf
	return p.parseFile(name, r, &fb)
}

// ParseSink consumes every file of an in-memory sink.
func (p *Parser) ParseSink(s *log4j.Sink) error {
	var fb fileBuf
	for _, f := range s.Files() {
		if err := p.parseFile(f, s.Reader(f), &fb); err != nil {
			return err
		}
	}
	return nil
}

// ParseDir walks a log directory tree (as written by Sink.WriteDir or
// collected from a real cluster) and consumes every regular file.
func (p *Parser) ParseDir(dir string) error {
	var fb fileBuf // one read buffer for the whole walk
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			rel = path
		}
		return p.parseFile(filepath.ToSlash(rel), f, &fb)
	})
}

// parseFile is ParseReader reading through fb, the calling loop's
// reusable buffer. On the fast matcher every file, daemon or container
// log, is read into fb once and walked with the zero-copy segment
// iterator. Equivalence with the reference scanner holds on errors too:
// bufio splits whatever it buffered (including a partial tail) with
// atEOF=true once the reader errors, which is exactly a segment walk
// over the bytes the read gathered; and a segment at the 4 MiB buffer
// cap surfaces as the scanner's ErrTooLong before any read error,
// matching the buffer-full case.
func (p *Parser) parseFile(name string, r io.Reader, fb *fileBuf) error {
	p.files++
	if referenceMatcher() {
		if cidStr := reContainerInPath.FindString(name); cidStr != "" {
			cid, err := ids.ParseContainerID(cidStr)
			if err != nil {
				return fmt.Errorf("core: %s: %w", name, err)
			}
			return p.parseContainerLog(name, cid, r)
		}
		return p.parseDaemonLog(name, r)
	}
	cid, isContainer, err := fastFindContainerID(name)
	if err != nil {
		return fmt.Errorf("core: %s: %w", name, err)
	}
	rerr := fb.load(r)
	// Mined strings would otherwise be views of fb, which the caller's
	// next file overwrites; have the miners clone what they keep (one
	// copy per emitted field, nothing on the other lines).
	p.cloneMined = true
	defer func() { p.cloneMined = false }()
	if isContainer {
		return p.feedContainerSegments(name, cid, fb.segments(), rerr)
	}
	if err := p.feedDaemonSegments(name, fb.segments()); err != nil {
		return err
	}
	return rerr
}

// parseDaemonLog mines RM/NM logs — app state changes, container
// transitions on both sides, launch invocations, opportunistic queueing
// — with the regexp reference matcher.
func (p *Parser) parseDaemonLog(name string, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		p.lines++
		line, err := log4j.ParseLine(sc.Text())
		if err != nil {
			continue // stack traces / malformed lines are skipped
		}
		p.countLine()
		p.mineDaemonLineRegex(name, line)
	}
	return sc.Err()
}

// fileBuf is a mining loop's reusable read buffer. load reads one whole
// file into it and String views the bytes, so every file the loop mines
// is walked by segmentIter without a per-file allocation once the
// buffer has grown to the largest file. A reader that hands its content
// over in one WriteString (strings.Reader, and so Sink.Reader, under
// io.Copy) is aliased instead of copied.
//
// String's result is valid only until the next load: the miners clone
// what they keep under the cloneMined gate. The buffer belongs to the
// loop that declares it (a mineFiles worker, a ParseDir walk, a
// ParseReader call) and never outlives it; no Parser, Checker or Report
// holds one.
type fileBuf struct {
	b        []byte
	direct   string // whole-string handover, if it happened
	lastFits bool   // see segmentIter.lastFits
}

// readChunk is the least free space each Read is offered: the reference
// scanner's initial buffer, so a reader that fails on its second read
// gives both matchers the same bytes.
const readChunk = 64 * 1024

// maxEmptyReads is bufio.Scanner's limit on consecutive (0, nil) reads
// before it fails with io.ErrNoProgress.
const maxEmptyReads = 100

// load replaces the buffer's content with r's, read to EOF or to the
// first error; the bytes gathered before an error stay loaded.
func (fb *fileBuf) load(r io.Reader) error {
	fb.b, fb.direct, fb.lastFits = fb.b[:0], "", false
	_, err := io.Copy(fb, r)
	return err
}

func (fb *fileBuf) spill() {
	if fb.direct != "" {
		fb.b = append(fb.b, fb.direct...)
		fb.direct = ""
	}
}

func (fb *fileBuf) WriteString(s string) (int, error) {
	if fb.direct == "" && len(fb.b) == 0 {
		fb.direct = s
		return len(s), nil
	}
	fb.spill()
	fb.b = append(fb.b, s...)
	return len(s), nil
}

func (fb *fileBuf) Write(p []byte) (int, error) {
	fb.spill()
	fb.b = append(fb.b, p...)
	return len(p), nil
}

// ReadFrom drains r into the buffer (io.Copy's route for files and any
// reader without WriteTo).
func (fb *fileBuf) ReadFrom(r io.Reader) (int64, error) {
	fb.spill()
	var n int64
	for empty := 0; ; {
		if cap(fb.b)-len(fb.b) < readChunk {
			fb.b = slices.Grow(fb.b, readChunk)
		}
		m, err := r.Read(fb.b[len(fb.b):cap(fb.b)])
		fb.b = fb.b[:len(fb.b)+m]
		n += int64(m)
		if err != nil {
			fb.lastFits = m > 0
		}
		switch {
		case err == io.EOF:
			return n, nil
		case err != nil:
			return n, err
		case m > 0:
			empty = 0
		default:
			if empty++; empty > maxEmptyReads {
				return n, io.ErrNoProgress
			}
		}
	}
}

// segments iterates over the loaded content's lines.
func (fb *fileBuf) segments() segmentIter {
	return segmentIter{raw: fb.String(), lastFits: fb.lastFits}
}

// String returns the loaded content; see the type comment for how long
// it stays valid.
func (fb *fileBuf) String() string {
	if fb.direct != "" {
		return fb.direct
	}
	return unsafe.String(unsafe.SliceData(fb.b), len(fb.b))
}

// mineDaemonLineFast is mineDaemonLineRegex on the byte-level rule
// tables: same cascade order, same hit counters, same emitted events.
func (p *Parser) mineDaemonLineFast(name string, line log4j.Line) {
	msg := line.Message
	if fastDaemonPrescreenOK && strings.IndexByte(msg, fastDaemonPrescreen) < 0 {
		return // no rule's mandatory literals fit: cannot match
	}
	var m fastMatch
	for ri := range fastDaemonRules {
		r := &fastDaemonRules[ri]
		if !r.match(msg, &m) {
			continue
		}
		if p.cloneMined {
			// Capture spans are offsets, so they survive the clone; every
			// extracted field below then shares the clone's backing array
			// instead of pinning the blob msg was sliced from.
			msg = strings.Clone(msg)
			line.Class = strings.Clone(line.Class)
		}
		p.hit(r.name)
		switch ri {
		case ruleAppSummary:
			app, err := fastParseAppID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			p.emit(Event{Kind: AppSubmitted0, TimeMS: line.TimeMS, App: app, Source: name, Class: line.Class,
				Raw: msg, Name: m.get(msg, 1), AppType: m.get(msg, 2), Queue: m.get(msg, 3)})
		case ruleAppState:
			app, err := fastParseAppID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			var kind Kind
			switch {
			case m.get(msg, 3) == "ATTEMPT_REGISTERED":
				kind = AttemptRegistered
			case m.get(msg, 2) == "SUBMITTED":
				kind = AppSubmitted
			case m.get(msg, 2) == "ACCEPTED":
				kind = AppAccepted
			case m.get(msg, 2) == "FINISHED":
				kind = AppFinished
			default:
				return // other transitions are not scheduling-relevant
			}
			p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: app, Source: name, Class: line.Class, Raw: msg})
		case ruleRMContainer:
			cid, err := fastParseContainerID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			var kind Kind
			switch m.get(msg, 2) {
			case "ALLOCATED":
				kind = ContAllocated
			case "ACQUIRED":
				kind = ContAcquired
			case "RELEASED":
				kind = ContReleased
			case "KILLED":
				kind = ContLost
			default:
				return
			}
			p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg})
		case ruleNMContainer:
			cid, err := fastParseContainerID(m.get(msg, 0))
			if err != nil {
				p.warnf("%s: %v", name, err)
				return
			}
			var kind Kind
			switch m.get(msg, 2) {
			case "LOCALIZING":
				kind = ContLocalizing
			case "SCHEDULED":
				kind = ContScheduled
			case "RUNNING":
				kind = ContRunning
			case "EXITED_WITH_SUCCESS":
				kind = ContExited
			default:
				return
			}
			p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: fastNodeFromPath(name)})
		case ruleLaunchInvoked:
			if cid, err := fastParseContainerID(m.get(msg, 0)); err == nil {
				p.emit(Event{Kind: LaunchInvoked, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: fastNodeFromPath(name)})
			}
		case ruleOppQueued:
			if cid, err := fastParseContainerID(m.get(msg, 0)); err == nil {
				p.emit(Event{Kind: OppQueued, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: fastNodeFromPath(name)})
			}
		case ruleAssigned, ruleOppAssigned:
			if cid, err := fastParseContainerID(m.get(msg, 0)); err == nil {
				p.emit(Event{Kind: ContAssigned, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: m.get(msg, 1)})
			}
		}
		return
	}
}

// nodeFromPath derives the NodeManager host from a daemon log path, or
// "" for RM/other logs.
func nodeFromPath(name string) string {
	if m := reNodeInPath.FindStringSubmatch(name); m != nil {
		return m[1]
	}
	return ""
}

// mineDaemonLineRegex is the retained regexp reference implementation
// (§III-A's literal "parse the logs … using regular expression"); the
// byte-level twin above must stay observably identical to it.
func (p *Parser) mineDaemonLineRegex(name string, line log4j.Line) {
	msg := line.Message
	if m := reAppSummary.FindStringSubmatch(msg); m != nil {
		p.hit("app_summary")
		app, err := ids.ParseAppID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		p.emit(Event{Kind: AppSubmitted0, TimeMS: line.TimeMS, App: app, Source: name, Class: line.Class,
			Raw: msg, Name: m[2], AppType: m[3], Queue: m[4]})
		return
	}
	if m := reAppState.FindStringSubmatch(msg); m != nil {
		p.hit("app_state")
		app, err := ids.ParseAppID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		var kind Kind
		switch {
		case m[4] == "ATTEMPT_REGISTERED":
			kind = AttemptRegistered
		case m[3] == "SUBMITTED":
			kind = AppSubmitted
		case m[3] == "ACCEPTED":
			kind = AppAccepted
		case m[3] == "FINISHED":
			kind = AppFinished
		default:
			return // other transitions are not scheduling-relevant
		}
		p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: app, Source: name, Class: line.Class, Raw: msg})
		return
	}
	if m := reRMCont.FindStringSubmatch(msg); m != nil {
		p.hit("rm_container")
		cid, err := ids.ParseContainerID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		var kind Kind
		switch m[3] {
		case "ALLOCATED":
			kind = ContAllocated
		case "ACQUIRED":
			kind = ContAcquired
		case "RELEASED":
			kind = ContReleased
		case "KILLED":
			kind = ContLost
		default:
			return
		}
		p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg})
		return
	}
	if m := reNMCont.FindStringSubmatch(msg); m != nil {
		p.hit("nm_container")
		cid, err := ids.ParseContainerID(m[1])
		if err != nil {
			p.warnf("%s: %v", name, err)
			return
		}
		var kind Kind
		switch m[3] {
		case "LOCALIZING":
			kind = ContLocalizing
		case "SCHEDULED":
			kind = ContScheduled
		case "RUNNING":
			kind = ContRunning
		case "EXITED_WITH_SUCCESS":
			kind = ContExited
		default:
			return
		}
		p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: nodeFromPath(name)})
		return
	}
	if m := reInvoke.FindStringSubmatch(msg); m != nil {
		p.hit("launch_invoked")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: LaunchInvoked, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: nodeFromPath(name)})
		}
		return
	}
	if m := reOppQueue.FindStringSubmatch(msg); m != nil {
		p.hit("opp_queued")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: OppQueued, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: nodeFromPath(name)})
		}
		return
	}
	if m := reAssigned.FindStringSubmatch(msg); m != nil {
		p.hit("assigned")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: ContAssigned, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: m[2]})
		}
		return
	}
	if m := reOppAssigned.FindStringSubmatch(msg); m != nil {
		p.hit("opp_assigned")
		if cid, err := ids.ParseContainerID(m[1]); err == nil {
			p.emit(Event{Kind: ContAssigned, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: line.Class, Raw: msg, Node: m[2]})
		}
	}
}

// containerScan carries one container-log scan's state. It is shared by
// the file walk, the single-line stream feeds and the reference scanner. Body events append directly to
// p.events past bodyStart; finish inserts the FIRST_LOG event in front
// of them, reproducing the reference ordering.
type containerScan struct {
	bodyStart int
	instance  InstanceType
	// The first parseable line's stamp, class and message: the FIRST_LOG
	// event finish emits.
	hasFirst             bool
	firstMS              int64
	firstClass, firstRaw string
	sawFirstTsk          bool
}

func (p *Parser) beginContainerScan() containerScan {
	return containerScan{bodyStart: len(p.events), instance: InstUnknown}
}

// line consumes one raw container-log line under the selected matcher.
func (cs *containerScan) line(p *Parser, name string, cid ids.ContainerID, raw string, ref bool) {
	var line log4j.Line
	if ref {
		l, err := log4j.ParseLine(raw)
		if err != nil {
			return
		}
		line = l
	} else {
		l, ok := log4j.ParseLineFast(raw)
		if !ok {
			return
		}
		line = l
	}
	p.countLine()
	if !cs.hasFirst {
		class, msg := line.Class, line.Message
		if p.cloneMined {
			class, msg = strings.Clone(class), strings.Clone(msg)
		}
		cs.hasFirst, cs.firstMS, cs.firstClass, cs.firstRaw = true, line.TimeMS, class, msg
	}
	// Instance classification from logging classes and message shape.
	switch {
	case strings.Contains(line.Class, "CoarseGrainedExecutorBackend"):
		cs.instance = InstSparkExecutor
	case strings.Contains(line.Class, "deploy.yarn.ApplicationMaster"):
		if cs.instance == InstUnknown {
			cs.instance = InstSparkDriver
		}
	case strings.Contains(line.Class, "MRAppMaster"):
		cs.instance = InstMRMaster
	case strings.Contains(line.Class, "YarnChild"):
		if strings.Contains(line.Message, "Starting MAP") {
			cs.instance = InstMRMap
		} else if strings.Contains(line.Message, "Starting REDUCE") {
			cs.instance = InstMRReduce
		}
	}
	var kind Kind
	switch {
	case matchBody(ruleRegister, line.Message, ref) && strings.Contains(line.Class, "deploy.yarn.ApplicationMaster"):
		p.hit("register")
		kind = DriverRegister
	case matchBody(ruleStartAllo, line.Message, ref):
		p.hit("start_allo")
		kind = StartAllo
	case matchBody(ruleEndAllo, line.Message, ref):
		p.hit("end_allo")
		kind = EndAllo
	case !cs.sawFirstTsk && matchBody(ruleFirstTask, line.Message, ref):
		cs.sawFirstTsk = true
		p.hit("first_task")
		kind = FirstTask
	default:
		return
	}
	class, msg := line.Class, line.Message
	if p.cloneMined {
		class, msg = strings.Clone(class), strings.Clone(msg)
	}
	p.emit(Event{Kind: kind, TimeMS: line.TimeMS, App: cid.App, Container: cid, Source: name, Class: class, Raw: msg})
}

func matchBody(rule int, msg string, ref bool) bool {
	if !ref {
		return fastBodyRules[rule].contains(msg)
	}
	switch rule {
	case ruleRegister:
		return reRegister.MatchString(msg)
	case ruleStartAllo:
		return reStartAllo.MatchString(msg)
	case ruleEndAllo:
		return reEndAllo.MatchString(msg)
	default:
		return reFirstTask.MatchString(msg)
	}
}

// finish emits the FIRST_LOG event (Table I rows 9/13) in front of the
// body events the scan appended, or the no-parseable-lines warning.
func (cs *containerScan) finish(p *Parser, name string, cid ids.ContainerID) {
	if !cs.hasFirst {
		p.warnf("%s: container log has no parseable lines", name)
		return
	}
	p.hit("first_log")
	flKind := TaskFirstLog
	switch cs.instance {
	case InstSparkDriver:
		flKind = DriverFirstLog
	case InstSparkExecutor:
		flKind = ExecutorFirstLog
	}
	ev := Event{Kind: flKind, TimeMS: cs.firstMS, App: cid.App, Container: cid, Source: name, Class: cs.firstClass, Raw: cs.firstRaw, Instance: cs.instance}
	p.events = append(p.events, Event{})
	copy(p.events[cs.bodyStart+1:], p.events[cs.bodyStart:len(p.events)-1])
	p.events[cs.bodyStart] = ev
}

// parseContainerLog mines one container's stderr with the regexp
// reference matcher: the first parseable line is FIRST_LOG; Spark
// driver/executor markers and the instance type come from the body.
func (p *Parser) parseContainerLog(name string, cid ids.ContainerID, r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	cs := p.beginContainerScan()
	for sc.Scan() {
		p.lines++
		cs.line(p, name, cid, sc.Text(), true)
	}
	if err := sc.Err(); err != nil {
		p.events = p.events[:cs.bodyStart] // a failed scan yields no events
		return err
	}
	cs.finish(p, name, cid)
	return nil
}

func (p *Parser) emit(e Event) {
	p.events = append(p.events, e)
}
