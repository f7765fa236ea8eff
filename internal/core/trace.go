package core

import (
	"cmp"
	"slices"

	"repro/internal/ids"
)

// ContainerTrace is the time-ordered scheduling history of one container,
// assembled from events that arrived in RM, NM, and container logs. All
// timestamps are epoch milliseconds; 0 means the event was not observed.
type ContainerTrace struct {
	ID       ids.ContainerID
	Instance InstanceType
	// Node is the host the container was bound to, mined from the
	// scheduler's ASSIGNED line or the NodeManager log the container's
	// NM-side transitions appeared in ("" when neither was collected).
	Node string

	Allocated     int64 // RMContainerImpl -> ALLOCATED  (msg 4)
	Acquired      int64 // RMContainerImpl -> ACQUIRED   (msg 5)
	Localizing    int64 // ContainerImpl   -> LOCALIZING (msg 6)
	Scheduled     int64 // ContainerImpl   -> SCHEDULED  (msg 7)
	LaunchInvoked int64 // launch script invocation (extension)
	Running       int64 // ContainerImpl   -> RUNNING    (msg 8)
	FirstLog      int64 // first stderr line (msgs 9/13)
	FirstTask     int64 // first task assignment (msg 14)
	Exited        int64
	Released      int64
	OppQueuedAt   int64 // opportunistic queueing observed
	Lost          int64 // RMContainerImpl -> KILLED (node lost)

	Events []Event

	// nodeMS and instanceMS stamp the events Node and Instance came
	// from, so an earlier-stamped late arrival can replace them.
	nodeMS, instanceMS int64
}

// IsAM reports whether this container hosted the ApplicationMaster.
// Container number 1 is YARN's convention, but when an AM container fails
// and the RM retries in a fresh container, the retry carries a higher
// number — so the instance classification mined from the container's own
// log takes precedence.
func (c *ContainerTrace) IsAM() bool {
	switch c.Instance {
	case InstSparkDriver, InstMRMaster:
		return true
	case InstSparkExecutor, InstMRMap, InstMRReduce:
		return false
	}
	return c.ID.IsAM()
}

// AppTrace is one application's assembled scheduling history.
type AppTrace struct {
	ID ids.AppID
	// Name, AppType and Queue come from the RM's submission summary line
	// (empty when that line was not collected).
	Name, AppType, Queue string

	Submitted      int64 // RMAppImpl -> SUBMITTED (msg 1)
	Accepted       int64 // RMAppImpl -> ACCEPTED  (msg 2)
	Registered     int64 // ATTEMPT_REGISTERED     (msg 3)
	Finished       int64 // RMAppImpl -> FINISHED  (extension)
	DriverRegister int64 // Spark driver REGISTER  (msg 10)
	StartAllo      int64 // msg 11
	EndAllo        int64 // msg 12

	Containers []*ContainerTrace // ordered by container number
	Events     []Event           // every event of the app, time-ordered

	Decomp *Decomposition // filled by Decompose

	byCID map[ids.ContainerID]*ContainerTrace
	// summarized and summaryMS record whether, and from which event
	// timestamp, Name/AppType/Queue were set (see foldEvent).
	summarized bool
	summaryMS  int64
}

// Container returns the trace for cid, or nil.
func (a *AppTrace) Container(cid ids.ContainerID) *ContainerTrace {
	return a.byCID[cid]
}

// AMContainer returns the ApplicationMaster container trace, or nil.
// When an AM retry produced several AM-classified containers, the one
// that actually came up (has a first log) wins.
func (a *AppTrace) AMContainer() *ContainerTrace {
	var fallback *ContainerTrace
	for _, c := range a.Containers {
		if !c.IsAM() {
			continue
		}
		if c.FirstLog != 0 {
			return c
		}
		if fallback == nil {
			fallback = c
		}
	}
	return fallback
}

// Executors returns the Spark executor container traces.
func (a *AppTrace) Executors() []*ContainerTrace {
	var out []*ContainerTrace
	for _, c := range a.Containers {
		if c.Instance == InstSparkExecutor {
			out = append(out, c)
		}
	}
	return out
}

// WorkerContainers returns every non-AM container (executors, MR tasks,
// and containers that never launched anything).
func (a *AppTrace) WorkerContainers() []*ContainerTrace {
	var out []*ContainerTrace
	for _, c := range a.Containers {
		if !c.IsAM() {
			out = append(out, c)
		}
	}
	return out
}

// Correlate groups mined events by application and container ID, orders
// them by timestamp, and returns one AppTrace per application sorted by
// submission sequence (§III-C: "binds each log event with its
// corresponding global ID ... aggregates and groups state transformations
// based on the IDs"). It is the batch form of the live Stream's fold:
// both apply foldEvent, so they derive the same fields.
func Correlate(events []Event) []*AppTrace { return correlate(events, 1) }

// correlate is Correlate with the per-app work on up to workers
// goroutines. Events can arrive in any order across files; each app's
// trace must see its own events in time order, ties in input order, so
// that its event lists and container first-observation order are
// time-ordered. Filtering a stable time sort of all events down to one
// app gives exactly that app's own stable time sort, so the events are
// bucketed by app in input order and each bucket is sorted and folded
// on its own.
func correlate(events []Event, workers int) []*AppTrace {
	// Number the apps in first-seen order (consecutive events mostly
	// share an app, so the map is consulted once per run), then lay the
	// event indices out app by app with a counting sort.
	appOf := make([]int32, len(events))
	index := make(map[ids.AppID]int32)
	var apps []*AppTrace
	var counts []int32
	k := int32(-1)
	for i := range events {
		id := events[i].App
		if k < 0 || apps[k].ID != id {
			var ok bool
			if k, ok = index[id]; !ok {
				k = int32(len(apps))
				index[id] = k
				apps = append(apps, &AppTrace{ID: id})
				counts = append(counts, 0)
			}
		}
		appOf[i] = k
		counts[k]++
	}
	starts := make([]int32, len(apps)+1)
	for k, n := range counts {
		starts[k+1] = starts[k] + n
		counts[k] = starts[k] // now the app's next free slot
	}
	order := make([]int32, len(events))
	for i, k := range appOf {
		order[counts[k]] = int32(i)
		counts[k]++
	}

	forEach(len(apps), workers, func(k int) {
		foldApp(apps[k], events, order[starts[k]:starts[k+1]])
	})
	sortTracesBySeq(apps)
	return apps
}

// foldApp builds a's trace from its events, given as indices into
// events in input order: it sorts them by timestamp, ties in input
// order, and folds them in that order. Each container's event list is
// its exact share of one backing array.
func foldApp(a *AppTrace, events []Event, idx []int32) {
	slices.SortStableFunc(idx, func(i, j int32) int { return cmp.Compare(events[i].TimeMS, events[j].TimeMS) })
	a.Events = make([]Event, len(idx))
	// of[n] is the position in a.Containers (first-observation order) of
	// event n's container, -1 for app-level events; sizes counts each
	// container's events.
	pos := make(map[ids.ContainerID]int32)
	of := make([]int32, len(idx))
	var sizes []int32
	nc := 0
	for n, i := range idx {
		e := &events[i]
		a.Events[n] = *e
		of[n] = -1
		var c *ContainerTrace
		if !e.Container.IsZero() {
			k, ok := pos[e.Container]
			if !ok {
				k = int32(len(a.Containers))
				pos[e.Container] = k
				a.Containers = append(a.Containers, &ContainerTrace{ID: e.Container})
				sizes = append(sizes, 0)
			}
			c = a.Containers[k]
			of[n] = k
			sizes[k]++
			nc++
		}
		foldEvent(a, c, *e)
	}
	buf := make([]Event, nc)
	a.byCID = make(map[ids.ContainerID]*ContainerTrace, len(a.Containers))
	for k, c := range a.Containers {
		c.Events, buf = buf[:0:sizes[k]], buf[sizes[k]:]
		a.byCID[c.ID] = c
	}
	for n, k := range of {
		if k >= 0 {
			c := a.Containers[k]
			c.Events = append(c.Events, a.Events[n])
		}
	}
	// Stable: containers sharing a number (AM retries across attempts)
	// keep first-observation order, so output is deterministic.
	slices.SortStableFunc(a.Containers, byContainerNum)
}

// timeOrder returns the permutation that stable-sorts events by
// timestamp, ties in input order. Sorting indices rather than the events
// keeps the sort from moving large structs.
func timeOrder(events []Event) []int32 {
	perm := make([]int32, len(events))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(i, j int32) int { return cmp.Compare(events[i].TimeMS, events[j].TimeMS) })
	return perm
}

// byContainerNum orders container traces by container number.
func byContainerNum(x, y *ContainerTrace) int { return cmp.Compare(x.ID.Num, y.ID.Num) }

// earliest keeps the earliest observation of a timestamp field: 0 means
// unobserved, and a later-arriving but earlier-stamped event wins.
func earliest(dst *int64, v int64) {
	if v != 0 && (*dst == 0 || v < *dst) {
		*dst = v
	}
}

// foldEvent applies one event's first-occurrence rules to its
// application a and container c (nil for application-level events).
// It is the one rule set behind both Correlate and the live Stream.
//
// e must arrive after every event already folded into a and c, and the
// earliest (TimeMS, arrival) observation wins: timestamp fields keep
// their earliest nonzero value, Node and Instance their earliest
// non-empty one, and a submission summary carrying a name beats every
// later-stamped one (until a named summary arrives, the latest unnamed
// one supplies type and queue). Folding a set of events in any arrival
// order therefore gives what folding them in time order gives, which is
// what lets the stream absorb out-of-order lines in O(1).
func foldEvent(a *AppTrace, c *ContainerTrace, e Event) {
	if c == nil {
		switch e.Kind {
		case AppSubmitted0:
			if !a.summarized ||
				e.Name != "" && (a.Name == "" || e.TimeMS < a.summaryMS) ||
				e.Name == "" && a.Name == "" && e.TimeMS >= a.summaryMS {
				a.Name, a.AppType, a.Queue = e.Name, e.AppType, e.Queue
				a.summarized, a.summaryMS = true, e.TimeMS
			}
		case AppSubmitted:
			earliest(&a.Submitted, e.TimeMS)
		case AppAccepted:
			earliest(&a.Accepted, e.TimeMS)
		case AttemptRegistered:
			earliest(&a.Registered, e.TimeMS)
		case AppFinished:
			earliest(&a.Finished, e.TimeMS)
		}
		return
	}
	if e.Node != "" && (c.Node == "" || e.TimeMS < c.nodeMS) {
		c.Node, c.nodeMS = e.Node, e.TimeMS
	}
	switch e.Kind {
	case ContAllocated:
		earliest(&c.Allocated, e.TimeMS)
	case ContAcquired:
		earliest(&c.Acquired, e.TimeMS)
	case ContLocalizing:
		earliest(&c.Localizing, e.TimeMS)
	case ContScheduled:
		earliest(&c.Scheduled, e.TimeMS)
	case LaunchInvoked:
		earliest(&c.LaunchInvoked, e.TimeMS)
	case ContRunning:
		earliest(&c.Running, e.TimeMS)
	case DriverFirstLog, ExecutorFirstLog, TaskFirstLog:
		earliest(&c.FirstLog, e.TimeMS)
		if e.Instance != InstUnknown && (c.Instance == InstUnknown || e.TimeMS < c.instanceMS) {
			c.Instance, c.instanceMS = e.Instance, e.TimeMS
		}
	case FirstTask:
		earliest(&c.FirstTask, e.TimeMS)
	case ContExited:
		earliest(&c.Exited, e.TimeMS)
	case ContReleased:
		earliest(&c.Released, e.TimeMS)
	case ContLost:
		earliest(&c.Lost, e.TimeMS)
	case OppQueued:
		earliest(&c.OppQueuedAt, e.TimeMS)
	case DriverRegister:
		earliest(&a.DriverRegister, e.TimeMS)
	case StartAllo:
		earliest(&a.StartAllo, e.TimeMS)
	case EndAllo:
		earliest(&a.EndAllo, e.TimeMS)
	}
}
