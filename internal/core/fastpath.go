package core

import (
	"bufio"
	"math"
	"regexp"
	"strings"

	"repro/internal/ids"
	"repro/internal/log4j"
)

// The mining hot path. The miner's vocabulary (internal/analysis/
// vocab.json) is a fixed set of literal-anchored patterns, so instead of
// running a regexp over every line the fast path dispatches on literal
// anchors ("application_", "Assigned container ", ...) and hand-rolls
// the field extraction with byte loops. Each rule is a small segment
// program; ruleRegex renders the segments back into a regex that is
// byte-for-byte the pattern parser.go declares, and sdlint's logvocab
// analyzer proves the two accept the same language (automaton
// containment both directions), so a rule here cannot silently drift
// from the declared vocabulary. The regexp implementation stays behind
// UseReferenceMatcher as the differential-testing reference.
//
// Matching preserves regexp semantics exactly:
//   - unanchored search tries anchor occurrences left to right
//     (leftmost match wins, like FindStringSubmatch);
//   - \w+/\S+/\d+ runs are matched maximally, which is exact because
//     segValidate checks each run is followed by a literal whose first
//     byte is outside the run's class (so backtracking cannot help);
//   - `.*lit` backtracks from the rightmost occurrence of lit before
//     the first newline (greedy dot, no dot-all flag);
//   - `(.+)lit$` requires lit as a suffix and a newline-free, non-empty
//     capture (no multiline flag, so $ is end of text).

type segKind uint8

const (
	segLit      segKind = iota // literal text
	segOptLit                  // optional literal group: (lit)?
	segAppID                   // application_\d+_\d+
	segContID                  // container_\d+_\d+_\d+_\d+
	segWord                    // (\w+)
	segNonSpace                // (\S+)
	segDigits                  // (\d+)
	segDotStar                 // .*  (must be followed by segLit)
	segDotPlus                 // (.+) (must be followed by segLit, segEnd)
	segEnd                     // $
	segAltLit                  // (?:lit|lit2)
)

type seg struct {
	kind segKind
	lit  string
	lit2 string // segAltLit only
	bare bool   // capturing kinds: emit the pattern without parens
}

type fastRule struct {
	name     string // metric name, or the regex variable for helpers
	regexVar string
	segs     []seg
}

// span is one captured field: subject[beg:end].
type span struct{ beg, end int }

// fastMatch receives a rule's captures. Four is the widest rule
// (app_summary, app_state); segValidate enforces the bound.
type fastMatch struct {
	n  int
	sp [4]span
}

func (m *fastMatch) get(s string, i int) string { return s[m.sp[i].beg:m.sp[i].end] }

// Indices into fastDaemonRules, in mineDaemonLine's cascade order.
const (
	ruleAppSummary = iota
	ruleAppState
	ruleRMContainer
	ruleNMContainer
	ruleLaunchInvoked
	ruleOppQueued
	ruleAssigned
	ruleOppAssigned
)

var fastDaemonRules = []fastRule{
	{name: "app_summary", regexVar: "reAppSummary", segs: []seg{
		{kind: segLit, lit: "Application "}, {kind: segAppID},
		{kind: segLit, lit: " submitted: name="}, {kind: segNonSpace},
		{kind: segLit, lit: " type="}, {kind: segNonSpace},
		{kind: segLit, lit: " queue="}, {kind: segNonSpace},
	}},
	{name: "app_state", regexVar: "reAppState", segs: []seg{
		{kind: segAppID},
		{kind: segLit, lit: " State change from "}, {kind: segWord},
		{kind: segLit, lit: " to "}, {kind: segWord},
		{kind: segLit, lit: " on event = "}, {kind: segWord},
	}},
	{name: "rm_container", regexVar: "reRMCont", segs: []seg{
		{kind: segContID},
		{kind: segLit, lit: " Container Transitioned from "}, {kind: segWord},
		{kind: segLit, lit: " to "}, {kind: segWord},
	}},
	{name: "nm_container", regexVar: "reNMCont", segs: []seg{
		{kind: segLit, lit: "Container "}, {kind: segContID},
		{kind: segLit, lit: " transitioned from "}, {kind: segWord},
		{kind: segLit, lit: " to "}, {kind: segWord},
	}},
	{name: "launch_invoked", regexVar: "reInvoke", segs: []seg{
		{kind: segLit, lit: "Invoking launch script for container "}, {kind: segContID},
	}},
	{name: "opp_queued", regexVar: "reOppQueue", segs: []seg{
		{kind: segLit, lit: "Opportunistic container "}, {kind: segContID},
		{kind: segLit, lit: " queued"},
	}},
	{name: "assigned", regexVar: "reAssigned", segs: []seg{
		{kind: segLit, lit: "Assigned container "}, {kind: segContID},
		{kind: segLit, lit: " "}, {kind: segDotStar},
		{kind: segLit, lit: "on host "}, {kind: segNonSpace},
	}},
	{name: "opp_assigned", regexVar: "reOppAssigned", segs: []seg{
		{kind: segLit, lit: "Allocated opportunistic container "}, {kind: segContID},
		{kind: segLit, lit: " on host "}, {kind: segNonSpace},
	}},
}

// Indices into fastBodyRules (container-log message bodies).
const (
	ruleRegister = iota
	ruleStartAllo
	ruleEndAllo
	ruleFirstTask
)

var fastBodyRules = []fastRule{
	{name: "register", regexVar: "reRegister", segs: []seg{
		{kind: segLit, lit: "Registered with "}, {kind: segOptLit, lit: "the "},
		{kind: segLit, lit: "ResourceManager"},
	}},
	{name: "start_allo", regexVar: "reStartAllo", segs: []seg{
		{kind: segLit, lit: "SDCHECKER START_ALLO"},
	}},
	{name: "end_allo", regexVar: "reEndAllo", segs: []seg{
		{kind: segLit, lit: "SDCHECKER END_ALLO"},
	}},
	{name: "first_task", regexVar: "reFirstTask", segs: []seg{
		{kind: segLit, lit: "Got assigned task "}, {kind: segDigits},
	}},
}

// Indices into fastHelperRules (routing/path helpers, named by their
// regex variable because they carry no metric).
const (
	ruleContainerInPath = iota
	ruleNodeInPath
	ruleAppInLine
)

// fastDaemonPrescreen is a one-byte rejection filter for the daemon
// cascade: a byte that every rule's mandatory literals contain, so a
// message lacking it cannot match any rule and the whole cascade (eight
// anchor searches) is skipped after a single IndexByte. With the
// current vocabulary the byte is '_' — every daemon rule extracts an
// application or container ID — which realistic non-vocabulary chatter
// (IPC handlers, audit records, heartbeats) almost never contains. The
// byte is computed from the segment tables at init, not assumed, so a
// table edit that invalidates it disables the filter rather than
// breaking matching.
var fastDaemonPrescreen, fastDaemonPrescreenOK = prescreenByte(fastDaemonRules)

// prescreenByte intersects, across rules, the sets of bytes each rule's
// match must contain (bytes of unconditional literals: segLit, the ID
// prefixes, and bytes common to both branches of segAltLit), and picks
// one shared byte. Space is excluded — virtually every message has one,
// so it rejects nothing. ok=false means no usable shared byte exists.
func prescreenByte(rules []fastRule) (b byte, ok bool) {
	var common [256]bool
	for i := range common {
		common[i] = true
	}
	for ri := range rules {
		var req [256]bool
		mark := func(lit string) {
			for i := 0; i < len(lit); i++ {
				req[lit[i]] = true
			}
		}
		for _, sg := range rules[ri].segs {
			switch sg.kind {
			case segLit:
				mark(sg.lit)
			case segAppID:
				mark("application_")
			case segContID:
				mark("container_")
			case segAltLit:
				for i := 0; i < len(sg.lit); i++ {
					if strings.IndexByte(sg.lit2, sg.lit[i]) >= 0 {
						req[sg.lit[i]] = true
					}
				}
			}
		}
		for i := range common {
			common[i] = common[i] && req[i]
		}
	}
	if common['_'] {
		return '_', true
	}
	for i := range common {
		if common[i] && byte(i) != ' ' {
			return byte(i), true
		}
	}
	return 0, false
}

var fastHelperRules = []fastRule{
	{name: "reContainerInPath", regexVar: "reContainerInPath", segs: []seg{
		{kind: segContID, bare: true},
	}},
	{name: "reNodeInPath", regexVar: "reNodeInPath", segs: []seg{
		{kind: segLit, lit: "yarn-nodemanager-"}, {kind: segDotPlus},
		{kind: segLit, lit: ".log"}, {kind: segEnd},
	}},
	{name: "reAppInLine", regexVar: "reAppInLine", segs: []seg{
		{kind: segAltLit, lit: "application", lit2: "container"},
		{kind: segLit, lit: "_"}, {kind: segDigits},
		{kind: segLit, lit: "_"}, {kind: segDigits},
	}},
}

func isWordByte(c byte) bool {
	return c == '_' || ('0' <= c && c <= '9') || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

// isSpaceByte is Go regexp's \s: [\t\n\f\r ] (no \v).
func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\f' || c == '\r'
}

func isDigitByte(c byte) bool { return '0' <= c && c <= '9' }

func digitRunEnd(s string, i int) int {
	for i < len(s) && isDigitByte(s[i]) {
		i++
	}
	return i
}

// matchAppIDAt matches application_\d+_\d+ starting exactly at i and
// returns the end offset, or -1.
func matchAppIDAt(s string, i int) int {
	const p = "application_"
	if !strings.HasPrefix(s[i:], p) {
		return -1
	}
	j := i + len(p)
	e := digitRunEnd(s, j)
	if e == j || e >= len(s) || s[e] != '_' {
		return -1
	}
	j = e + 1
	e = digitRunEnd(s, j)
	if e == j {
		return -1
	}
	return e
}

// matchContIDAt matches container_\d+_\d+_\d+_\d+ starting exactly at i.
func matchContIDAt(s string, i int) int {
	const p = "container_"
	if !strings.HasPrefix(s[i:], p) {
		return -1
	}
	j := i + len(p)
	for f := 0; f < 4; f++ {
		e := digitRunEnd(s, j)
		if e == j {
			return -1
		}
		if f == 3 {
			return e
		}
		if e >= len(s) || s[e] != '_' {
			return -1
		}
		j = e + 1
	}
	return -1
}

// anchor returns the next candidate start position >= from for the
// rule's first segment, or -1. A match can only begin at one of these.
func (r *fastRule) anchor(s string, from int) int {
	if from > len(s) {
		return -1
	}
	first := &r.segs[0]
	switch first.kind {
	case segLit:
		j := strings.Index(s[from:], first.lit)
		if j < 0 {
			return -1
		}
		return from + j
	case segAppID:
		j := strings.Index(s[from:], "application_")
		if j < 0 {
			return -1
		}
		return from + j
	case segContID:
		j := strings.Index(s[from:], "container_")
		if j < 0 {
			return -1
		}
		return from + j
	case segAltLit:
		j := strings.Index(s[from:], first.lit)
		j2 := strings.Index(s[from:], first.lit2)
		if j < 0 || (j2 >= 0 && j2 < j) {
			j = j2
		}
		if j < 0 {
			return -1
		}
		return from + j
	}
	panic("core: fast rule " + r.name + " starts with an unanchorable segment")
}

// match runs the rule over s with regexp search semantics and fills m's
// captures on success. It never allocates.
func (r *fastRule) match(s string, m *fastMatch) bool {
	for from := 0; ; {
		pos := r.anchor(s, from)
		if pos < 0 {
			return false
		}
		m.n = 0
		if matchSegsAt(s, pos, r.segs, m) {
			return true
		}
		from = pos + 1
	}
}

func (m *fastMatch) record(beg, end int) {
	m.sp[m.n] = span{beg, end}
	m.n++
}

func matchSegsAt(s string, i int, segs []seg, m *fastMatch) bool {
	for k := 0; k < len(segs); k++ {
		sg := &segs[k]
		switch sg.kind {
		case segLit:
			if !strings.HasPrefix(s[i:], sg.lit) {
				return false
			}
			i += len(sg.lit)
		case segOptLit:
			// (lit)? before a literal: the greedy present branch commits
			// only if the following literal also fits, otherwise the
			// absent branch is the one regexp backtracking would take.
			if strings.HasPrefix(s[i:], sg.lit) && strings.HasPrefix(s[i+len(sg.lit):], segs[k+1].lit) {
				i += len(sg.lit)
			}
		case segAppID:
			e := matchAppIDAt(s, i)
			if e < 0 {
				return false
			}
			m.record(i, e)
			i = e
		case segContID:
			e := matchContIDAt(s, i)
			if e < 0 {
				return false
			}
			m.record(i, e)
			i = e
		case segWord, segNonSpace, segDigits:
			e := i
			switch sg.kind {
			case segWord:
				for e < len(s) && isWordByte(s[e]) {
					e++
				}
			case segNonSpace:
				for e < len(s) && !isSpaceByte(s[e]) {
					e++
				}
			default:
				e = digitRunEnd(s, e)
			}
			if e == i {
				return false
			}
			m.record(i, e)
			i = e
		case segDotStar:
			// Greedy `.*lit`: try the rightmost occurrence of lit before
			// the first newline, then earlier ones, exactly regexp's
			// preference order.
			lit := segs[k+1].lit
			hi := i + strings.IndexByte(s[i:], '\n')
			if hi < i {
				hi = len(s)
			} else {
				hi += len(lit) // lit may touch but not cross the newline
				if hi > len(s) {
					hi = len(s)
				}
			}
			for {
				j := strings.LastIndex(s[i:hi], lit)
				if j < 0 {
					return false
				}
				save := m.n
				if matchSegsAt(s, i+j+len(lit), segs[k+2:], m) {
					return true
				}
				m.n = save
				hi = i + j + len(lit) - 1
			}
		case segDotPlus:
			// `(.+)lit$`: lit must be a suffix and the capture newline-free.
			lit := segs[k+1].lit
			if !strings.HasSuffix(s, lit) {
				return false
			}
			end := len(s) - len(lit)
			if end <= i || strings.IndexByte(s[i:end], '\n') >= 0 {
				return false
			}
			m.record(i, end)
			i = len(s)
			k += 2 // consumed lit; the loop lands on segEnd
		case segEnd:
			if i != len(s) {
				return false
			}
		case segAltLit:
			switch {
			case strings.HasPrefix(s[i:], sg.lit):
				i += len(sg.lit)
			case strings.HasPrefix(s[i:], sg.lit2):
				i += len(sg.lit2)
			default:
				return false
			}
		}
	}
	return true
}

// contains is match without captures, for the pure-literal body rules.
func (r *fastRule) contains(s string) bool {
	var m fastMatch
	return r.match(s, &m)
}

// segValidate panics unless every rule stays inside the shapes the
// matcher is exact for. It runs once at init so an edit that breaks an
// equivalence precondition fails every test immediately.
func segValidate() {
	check := func(r *fastRule) {
		segs := r.segs
		caps := 0
		bad := func(why string) {
			panic("core: fast rule " + r.name + ": " + why)
		}
		for k, sg := range segs {
			litFollows := func(class func(byte) bool, what string) {
				if k+1 == len(segs) {
					return
				}
				next := segs[k+1]
				if next.kind == segEnd {
					return
				}
				if next.kind != segLit || next.lit == "" || class(next.lit[0]) {
					bad(what + " run must be followed by a literal starting outside the class")
				}
			}
			switch sg.kind {
			case segLit:
				if sg.lit == "" {
					bad("empty literal")
				}
			case segOptLit:
				if k+1 >= len(segs) || segs[k+1].kind != segLit {
					bad("optional literal must be followed by a literal")
				}
			case segAppID, segContID:
				caps++
				litFollows(isDigitByte, "ID")
			case segWord:
				caps++
				litFollows(isWordByte, "\\w+")
			case segNonSpace:
				caps++
				litFollows(func(c byte) bool { return !isSpaceByte(c) }, "\\S+")
			case segDigits:
				caps++
				litFollows(isDigitByte, "\\d+")
			case segDotStar:
				if k+1 >= len(segs) || segs[k+1].kind != segLit {
					bad(".* must be followed by a literal")
				}
			case segDotPlus:
				caps++
				if k+2 >= len(segs) || segs[k+1].kind != segLit || segs[k+2].kind != segEnd {
					bad("(.+) must be followed by a literal and $")
				}
			case segEnd:
				if k+1 != len(segs) {
					bad("$ must be last")
				}
			}
		}
		if caps > len(fastMatch{}.sp) {
			bad("too many captures")
		}
		if len(segs) == 0 {
			bad("empty rule")
		}
		r.anchor("", 0) // panics on unanchorable first segment
	}
	for i := range fastDaemonRules {
		check(&fastDaemonRules[i])
	}
	for i := range fastBodyRules {
		check(&fastBodyRules[i])
	}
	for i := range fastHelperRules {
		check(&fastHelperRules[i])
	}
}

func init() {
	segValidate()
	// The emit switches in parser.go index these tables by the rule
	// constants; pin the correspondence.
	for i, want := range []string{"app_summary", "app_state", "rm_container", "nm_container",
		"launch_invoked", "opp_queued", "assigned", "opp_assigned"} {
		if fastDaemonRules[i].name != want {
			panic("core: fastDaemonRules order drifted from the mining cascade")
		}
	}
	for i, want := range []string{"register", "start_allo", "end_allo", "first_task"} {
		if fastBodyRules[i].name != want {
			panic("core: fastBodyRules order drifted")
		}
	}
	for i, want := range []string{"reContainerInPath", "reNodeInPath", "reAppInLine"} {
		if fastHelperRules[i].name != want {
			panic("core: fastHelperRules order drifted")
		}
	}
}

// ruleRegex renders the rule's segments as the regex the byte matcher
// implements. For every rule this is byte-for-byte the pattern declared
// in parser.go (asserted by TestFastSpecPatternsMatchSource), and sdlint
// proves the languages coincide even if the bytes ever diverge.
func (r *fastRule) ruleRegex() string {
	var b strings.Builder
	wrap := func(body string, bare bool) {
		if bare {
			b.WriteString(body)
			return
		}
		b.WriteString("(")
		b.WriteString(body)
		b.WriteString(")")
	}
	for _, sg := range r.segs {
		switch sg.kind {
		case segLit:
			b.WriteString(regexp.QuoteMeta(sg.lit))
		case segOptLit:
			b.WriteString("(")
			b.WriteString(regexp.QuoteMeta(sg.lit))
			b.WriteString(")?")
		case segAppID:
			wrap(`application_\d+_\d+`, sg.bare)
		case segContID:
			wrap(`container_\d+_\d+_\d+_\d+`, sg.bare)
		case segWord:
			wrap(`\w+`, sg.bare)
		case segNonSpace:
			wrap(`\S+`, sg.bare)
		case segDigits:
			wrap(`\d+`, sg.bare)
		case segDotStar:
			b.WriteString(`.*`)
		case segDotPlus:
			wrap(`.+`, sg.bare)
		case segEnd:
			b.WriteString(`$`)
		case segAltLit:
			b.WriteString("(?:")
			b.WriteString(regexp.QuoteMeta(sg.lit))
			b.WriteString("|")
			b.WriteString(regexp.QuoteMeta(sg.lit2))
			b.WriteString(")")
		}
	}
	return b.String()
}

// FastRuleSpec describes one fast-path rule for the sdlint equivalence
// proof: the metric (or helper) name, the miner regex variable the rule
// replaces, and the regex generated from the same segment table the
// byte matcher executes.
type FastRuleSpec struct {
	Name     string
	RegexVar string
	Pattern  string
}

// FastPathSpec exports the full dispatch table — every daemon, container
// body, and helper rule — so sdlint's logvocab analyzer can prove each
// rule equivalent to its declared regex and the table complete against
// the vocabulary manifest.
func FastPathSpec() []FastRuleSpec {
	var out []FastRuleSpec
	for _, tbl := range [][]fastRule{fastDaemonRules, fastBodyRules, fastHelperRules} {
		for i := range tbl {
			r := &tbl[i]
			out = append(out, FastRuleSpec{Name: r.name, RegexVar: r.regexVar, Pattern: r.ruleRegex()})
		}
	}
	return out
}

// fastParseAppID parses a span the matcher already validated as
// application_\d+_\d+ without allocating; on integer overflow it falls
// back to ids.ParseAppID so the error text (and therefore the parser's
// warning) is identical to the reference implementation's.
func fastParseAppID(s string) (ids.AppID, error) {
	rest := s[len("application_"):]
	us := strings.IndexByte(rest, '_')
	cts, ok1 := parseDecimal(rest[:us])
	seq, ok2 := parseDecimal(rest[us+1:])
	if !ok1 || !ok2 {
		return ids.ParseAppID(s)
	}
	return ids.AppID{ClusterTS: cts, Seq: int(seq)}, nil
}

// fastParseContainerID is fastParseAppID for container_\d+_\d+_\d+_\d+.
func fastParseContainerID(s string) (ids.ContainerID, error) {
	rest := s[len("container_"):]
	u1 := strings.IndexByte(rest, '_')
	u2 := u1 + 1 + strings.IndexByte(rest[u1+1:], '_')
	u3 := u2 + 1 + strings.IndexByte(rest[u2+1:], '_')
	cts, ok1 := parseDecimal(rest[:u1])
	seq, ok2 := parseDecimal(rest[u1+1 : u2])
	att, ok3 := parseDecimal(rest[u2+1 : u3])
	num, ok4 := parseDecimal(rest[u3+1:])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return ids.ParseContainerID(s)
	}
	return ids.ContainerID{
		App:     ids.AppID{ClusterTS: cts, Seq: int(seq)},
		Attempt: int(att),
		Num:     int(num),
	}, nil
}

// parseDecimal parses an all-digit string as a non-negative int64,
// reporting false on overflow (strconv's out-of-range case).
func parseDecimal(s string) (int64, bool) {
	var n int64
	for i := 0; i < len(s); i++ {
		d := int64(s[i] - '0')
		if n > (math.MaxInt64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// fastFindContainerID finds the leftmost container ID in s (the fast
// reContainerInPath.FindString + ids.ParseContainerID). found reports a
// textual match; err is non-nil when the match overflows integer parsing.
func fastFindContainerID(s string) (cid ids.ContainerID, found bool, err error) {
	var m fastMatch
	if !fastHelperRules[ruleContainerInPath].match(s, &m) {
		return ids.ContainerID{}, false, nil
	}
	cid, err = fastParseContainerID(m.get(s, 0))
	return cid, true, err
}

// fastNodeFromPath is nodeFromPath without the regexp: the capture of
// yarn-nodemanager-(.+)\.log$ or "".
func fastNodeFromPath(name string) string {
	var m fastMatch
	if !fastHelperRules[ruleNodeInPath].match(name, &m) {
		return ""
	}
	return m.get(name, 0)
}

// fastAppInLine is the fast reAppInLine route helper: the leftmost
// application/container ID prefix in raw, parsed. ok is false when there
// is no match or the leftmost match overflows (the sharded router falls
// back to source-hash placement in both cases, exactly like the
// strconv-error path of the regex router).
func fastAppInLine(raw string) (ids.AppID, bool) {
	var m fastMatch
	if !fastHelperRules[ruleAppInLine].match(raw, &m) {
		return ids.AppID{}, false
	}
	cts, ok1 := parseDecimal(m.get(raw, 0))
	seq, ok2 := parseDecimal(m.get(raw, 1))
	if !ok1 || !ok2 {
		return ids.AppID{}, false
	}
	return ids.AppID{ClusterTS: cts, Seq: int(seq)}, true
}

// maxLineBytes is bufio.Scanner's token cap as configured by the file
// parsers: a line of this many bytes or more is a scan error.
const maxLineBytes = 4 * 1024 * 1024

// segmentIter splits a raw feed exactly like the reference parsers'
// bufio.Scanner would: on '\n', one trailing '\r' dropped per segment,
// no final empty segment after a trailing newline, and a segment of
// maxLineBytes or more (measured before the '\r' drop, like the
// scanner's buffered token) is the ErrTooLong case.
type segmentIter struct {
	raw   string
	start int
	// lastFits is set when the read that ended the input also delivered
	// its last bytes: the scanner then splits the rest at EOF without a
	// buffer-full check, so an unterminated final segment of exactly
	// maxLineBytes is a line, not ErrTooLong.
	lastFits bool
}

func (it *segmentIter) next() (seg string, ok, tooLong bool) {
	if it.start > len(it.raw) {
		return "", false, false
	}
	nl := strings.IndexByte(it.raw[it.start:], '\n')
	final := nl < 0
	if final {
		if it.start == len(it.raw) {
			it.start++
			return "", false, false
		}
		seg = it.raw[it.start:]
		it.start = len(it.raw) + 1
	} else {
		seg = it.raw[it.start : it.start+nl]
		it.start += nl + 1
	}
	if len(seg) > maxLineBytes || len(seg) == maxLineBytes && !(final && it.lastFits) {
		return "", false, true
	}
	if len(seg) > 0 && seg[len(seg)-1] == '\r' {
		seg = seg[:len(seg)-1]
	}
	return seg, true, false
}

// feedDaemonSegments mines a daemon log's bytes — a whole file from
// parseFile, or a stream feed — on the fast matcher: no reader, no
// scanner buffer, no allocations on non-matching lines. It returns
// bufio.ErrTooLong where the scanner would.
func (p *Parser) feedDaemonSegments(source string, it segmentIter) error {
	for {
		seg, ok, tooLong := it.next()
		if tooLong {
			return bufio.ErrTooLong
		}
		if !ok {
			return nil
		}
		p.lines++
		line, lok := log4j.ParseLineFast(seg)
		if !lok {
			continue
		}
		p.countLine()
		p.mineDaemonLineFast(source, line)
	}
}

// feedContainerSegments is feedDaemonSegments for a container log. rerr
// is the error that cut the read short, if any: the bytes before it are
// walked and counted like the scanner does, then, as on ErrTooLong, the
// file's events are dropped and the error returned.
func (p *Parser) feedContainerSegments(source string, cid ids.ContainerID, it segmentIter, rerr error) error {
	cs := p.beginContainerScan()
	for {
		seg, ok, tooLong := it.next()
		if tooLong {
			rerr = bufio.ErrTooLong
			break
		}
		if !ok {
			break
		}
		p.lines++
		cs.line(p, source, cid, seg, false)
	}
	if rerr != nil {
		p.events = p.events[:cs.bodyStart] // a failed scan yields no events
		return rerr
	}
	cs.finish(p, source, cid)
	return nil
}
