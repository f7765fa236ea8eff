package core

import (
	"slices"
	"sort"

	"repro/internal/ids"
)

// appState is one application's live fold inside a Stream. Every
// absorbed event updates it in O(1) amortized: the headline and
// per-container fields through foldEvent (the rule set Correlate uses),
// the time-ordered event list, and the inputs of the Complete predicate.
// The *AppTrace view that Correlate + Decompose would build from the
// same events is produced only by view, and cached until the next event.
type appState struct {
	// t holds the folded headline fields; its Events, Containers, byCID
	// and Decomp stay unset (view fills them in a published copy).
	t AppTrace
	// events is the app's events ordered by timestamp, ties in arrival
	// order. Right after a publish it shares its backing array with the
	// published trace, capped at its length, so the next insert copies.
	events []Event
	cons   map[ids.ContainerID]*conState
	// arrivals numbers container events as they are folded; with the
	// timestamp it orders containers by first observation.
	arrivals int
	// pub is the last published trace, nil once events arrived since.
	pub *AppTrace

	// complete is the Complete predicate as of the last settle; notified
	// marks that the completion hook has fired.
	complete, notified bool

	// The Complete predicate's inputs beyond the headline timestamps in
	// t: lost containers, causal-order violations, the earliest worker
	// FIRST_TASK and FIRST_LOG (recomputed when workersStale), and the
	// AM container among ams (recomputed when amStale).
	lost, violations        int
	firstTask, firstExecLog int64
	workersStale            bool
	ams                     []*conState
	am                      *conState
	amStale                 bool
}

// conState is one container's live fold.
type conState struct {
	// ContainerTrace holds the folded fields; Events stays nil.
	ContainerTrace
	// n counts the container's events; firstMS and firstArrival key its
	// first observation (earliest timestamp, then earliest arrival).
	n            int
	firstMS      int64
	firstArrival int
	// firstLogSeen marks that the container's FIRST_LOG was taken, since
	// a stream cannot re-read "the first line of the file".
	firstLogSeen bool
	// isAM is the container's AM classification as of its last fold (a
	// member of appState.ams); violations its order-violation count.
	isAM       bool
	violations int
}

// container returns the live state for cid, creating it on first sight.
func (st *appState) container(cid ids.ContainerID) *conState {
	c := st.cons[cid]
	if c == nil {
		c = &conState{ContainerTrace: ContainerTrace{ID: cid}}
		st.cons[cid] = c
	}
	return c
}

// fold absorbs one event, the newest arrival, into the app's state.
func (st *appState) fold(e Event) {
	st.insert(e)
	st.pub = nil
	if e.Container.IsZero() {
		before := appOrderViolations(&st.t)
		foldEvent(&st.t, nil, e)
		st.violations += appOrderViolations(&st.t) - before
		return
	}
	c := st.container(e.Container)
	if c.n == 0 || e.TimeMS < c.firstMS {
		c.firstMS, c.firstArrival = e.TimeMS, st.arrivals
	}
	st.arrivals++
	wasAM, wasWorker := c.isAM, c.n > 0 && !c.isAM
	oldTask, oldLog, wasLost := c.FirstTask, c.FirstLog, c.Lost > 0
	c.n++

	foldEvent(&st.t, &c.ContainerTrace, e)

	isAM := c.IsAM()
	if isAM != c.isAM {
		if isAM {
			st.ams = append(st.ams, c)
		} else {
			i := slices.Index(st.ams, c)
			st.ams = slices.Delete(st.ams, i, i+1)
		}
		c.isAM = isAM
	}
	if isAM || wasAM {
		st.amStale = true
	}
	// The worker minimums only ever fall while a container stays a
	// worker with positive stamps; anything else forces a rescan.
	if wasWorker && (isAM || oldTask > 0 && c.FirstTask <= 0 || oldLog > 0 && c.FirstLog <= 0) {
		st.workersStale = true
	}
	if !isAM && !st.workersStale {
		if c.FirstTask > 0 && (st.firstTask == 0 || c.FirstTask < st.firstTask) {
			st.firstTask = c.FirstTask
		}
		if c.FirstLog > 0 && (st.firstExecLog == 0 || c.FirstLog < st.firstExecLog) {
			st.firstExecLog = c.FirstLog
		}
	}
	if isLost := c.Lost > 0; isLost != wasLost {
		if isLost {
			st.lost++
		} else {
			st.lost--
		}
	}
	v := containerOrderViolations(&c.ContainerTrace)
	st.violations += v - c.violations
	c.violations = v
}

// insert places e after every event stamped no later than it. Live
// feeds arrive nearly in time order, so this is almost always an append.
func (st *appState) insert(e Event) {
	n := len(st.events)
	i := n
	if n > 0 && st.events[n-1].TimeMS > e.TimeMS {
		i = sort.Search(n, func(j int) bool { return st.events[j].TimeMS > e.TimeMS })
	}
	st.events = append(st.events, e)
	if i < n {
		copy(st.events[i+1:], st.events[i:n])
		st.events[i] = e
	}
}

// completeNow evaluates Decompose's Complete flag from the folded inputs,
// without building the trace: every headline component present and
// non-negative, and no anomaly.
func (st *appState) completeNow() bool {
	a := &st.t
	if st.lost > 0 || st.violations > 0 || diff(a.Registered, a.Submitted) < 0 {
		return false
	}
	if st.workersStale {
		st.firstTask, st.firstExecLog = 0, 0
		for _, c := range st.cons {
			if c.n == 0 || c.isAM {
				continue
			}
			if c.FirstTask > 0 && (st.firstTask == 0 || c.FirstTask < st.firstTask) {
				st.firstTask = c.FirstTask
			}
			if c.FirstLog > 0 && (st.firstExecLog == 0 || c.FirstLog < st.firstExecLog) {
				st.firstExecLog = c.FirstLog
			}
		}
		st.workersStale = false
	}
	if diff(st.firstTask, a.Submitted) < 0 || diff(st.firstTask, st.firstExecLog) < 0 {
		return false
	}
	if st.amStale {
		st.am = pickAM(st.ams)
		st.amStale = false
	}
	return st.am != nil && diff(a.DriverRegister, st.am.FirstLog) >= 0
}

// pickAM applies AppTrace.AMContainer to the AM-classified containers:
// in container order (number, then first observation), the first with a
// first log, else the first.
func pickAM(ams []*conState) *conState {
	var best, fallback *conState
	for _, c := range ams {
		if fallback == nil || c.before(fallback) {
			fallback = c
		}
		if c.FirstLog != 0 && (best == nil || c.before(best)) {
			best = c
		}
	}
	if best != nil {
		return best
	}
	return fallback
}

// before reports whether c precedes d in a trace's container order.
func (c *conState) before(d *conState) bool {
	if c.ID.Num != d.ID.Num {
		return c.ID.Num < d.ID.Num
	}
	if c.firstMS != d.firstMS {
		return c.firstMS < d.firstMS
	}
	return c.firstArrival < d.firstArrival
}

// view publishes the app: the trace Correlate + Decompose would build
// from its events, cached until the next fold. The trace shares the
// event array, capped so later inserts copy first; it is never mutated
// once returned.
func (st *appState) view() *AppTrace {
	if st.pub != nil {
		return st.pub
	}
	a := new(AppTrace)
	*a = st.t
	n := len(st.events)
	st.events = st.events[:n:n]
	a.Events = st.events

	// Containers in first-observation order (the walk over time-ordered
	// events meets each container first at its earliest event), then
	// stably by number — Correlate's order. One backing array holds
	// every container's events.
	traces := make([]ContainerTrace, 0, len(st.cons))
	if len(st.cons) > 0 {
		a.Containers = make([]*ContainerTrace, 0, len(st.cons))
	}
	a.byCID = make(map[ids.ContainerID]*ContainerTrace, len(st.cons))
	total := 0
	for _, c := range st.cons {
		total += c.n
	}
	buf := make([]Event, total)
	for _, e := range a.Events {
		if e.Container.IsZero() {
			continue
		}
		c := a.byCID[e.Container]
		if c == nil {
			cs := st.cons[e.Container]
			traces = append(traces, cs.ContainerTrace)
			c = &traces[len(traces)-1]
			c.Events, buf = buf[:0:cs.n], buf[cs.n:]
			a.byCID[e.Container] = c
			a.Containers = append(a.Containers, c)
		}
		c.Events = append(c.Events, e)
	}
	slices.SortStableFunc(a.Containers, byContainerNum)
	Decompose(a)
	st.pub = a
	return a
}
