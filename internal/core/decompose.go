package core

import "fmt"

// Decomposition is the per-application delay breakdown of §III-C. All
// values are milliseconds; Missing (-1) marks components whose defining
// log messages were absent (e.g. an application that never ran a task).
const Missing int64 = -1

// ContainerDelay is one per-container delay observation. Node carries the
// container's host binding so cluster-level aggregation can slice
// per-node ("" when the logs held no binding).
type ContainerDelay struct {
	Container string
	Instance  InstanceType
	Node      string
	MS        int64
}

// Decomposition holds every delay SDchecker derives for one application.
type Decomposition struct {
	// Total scheduling delay: submission (msg 1) to first user task
	// assignment (msg 14).
	Total int64
	// AM delay: submission to AppMaster registration (msgs 1 -> 3).
	AM int64
	// Cf / Cl delay: submission to first / last worker-container launch
	// (msgs 1 -> 8); ClMinusCf is Fig 6b's spread metric.
	Cf, Cl, ClMinusCf int64
	// In-application delay (Spark-caused) = Driver + Executor delay;
	// Out-application delay (YARN-caused) = Total - In.
	In, Out int64
	// Driver delay: driver first log to RM registration (msgs 9 -> 10).
	Driver int64
	// Executor delay: first executor first-log to first task assignment
	// (msgs 13 -> 14).
	Executor int64
	// Alloc delay: the manually-added START_ALLO -> END_ALLO interval
	// (msgs 11 -> 12) — the aggregated resource allocation delay.
	Alloc int64
	// JobRuntime: submission to application FINISHED (extension), the
	// denominator of the paper's normalized plots.
	JobRuntime int64

	// Per-container components (msgs 4->5, 6->7, 7->8), plus the
	// queueing delay extension (SCHEDULED -> launch-script invocation).
	Acquisitions  []ContainerDelay
	Localizations []ContainerDelay
	Launchings    []ContainerDelay
	Queueings     []ContainerDelay

	// Complete reports whether the decomposition rests on a full set of
	// headline observations (Total, AM, Driver, Executor all present) and
	// no anomalies. Incomplete decompositions are still returned — a
	// partial breakdown of a degraded log beats no breakdown — but they
	// must not be silently aggregated as if sound.
	Complete bool
	// Anomalies lists, in human-readable form, why the trace is partial or
	// suspect: missing headline messages, containers lost to node failure,
	// or out-of-order timestamps hinting at clock skew between log files.
	Anomalies []string
}

func diff(later, earlier int64) int64 {
	if later == 0 || earlier == 0 {
		return Missing
	}
	d := later - earlier
	if d < 0 {
		return Missing
	}
	return d
}

// Decompose computes the delay breakdown for one application trace and
// stores it on the trace.
func Decompose(a *AppTrace) *Decomposition {
	d := &Decomposition{
		Total: Missing, AM: Missing, Cf: Missing, Cl: Missing, ClMinusCf: Missing,
		In: Missing, Out: Missing, Driver: Missing, Executor: Missing,
		Alloc: Missing, JobRuntime: Missing,
	}
	a.Decomp = d

	d.AM = diff(a.Registered, a.Submitted)
	d.Alloc = diff(a.EndAllo, a.StartAllo)
	d.JobRuntime = diff(a.Finished, a.Submitted)

	// Driver delay (msgs 9 -> 10).
	if am := a.AMContainer(); am != nil {
		d.Driver = diff(a.DriverRegister, am.FirstLog)
	}

	// First task / first executor log over all worker containers.
	var firstTask, firstExecLog int64
	var firstRun, lastRun int64
	for _, c := range a.WorkerContainers() {
		if c.FirstTask > 0 && (firstTask == 0 || c.FirstTask < firstTask) {
			firstTask = c.FirstTask
		}
		if c.FirstLog > 0 && (firstExecLog == 0 || c.FirstLog < firstExecLog) {
			firstExecLog = c.FirstLog
		}
		if c.Running > 0 {
			if firstRun == 0 || c.Running < firstRun {
				firstRun = c.Running
			}
			if c.Running > lastRun {
				lastRun = c.Running
			}
		}
	}
	d.Total = diff(firstTask, a.Submitted)
	d.Executor = diff(firstTask, firstExecLog)
	d.Cf = diff(firstRun, a.Submitted)
	d.Cl = diff(lastRun, a.Submitted)
	if d.Cf >= 0 && d.Cl >= 0 {
		d.ClMinusCf = d.Cl - d.Cf
	}

	// In/out split (§III-C): in-application = Spark-internal delays.
	if d.Driver >= 0 && d.Executor >= 0 {
		d.In = d.Driver + d.Executor
		if d.Total >= 0 {
			d.Out = d.Total - d.In
			if d.Out < 0 {
				d.Out = 0
			}
		}
	}

	// Per-container components.
	for _, c := range a.Containers {
		id := c.ID.String()
		if v := diff(c.Acquired, c.Allocated); v >= 0 {
			d.Acquisitions = append(d.Acquisitions, ContainerDelay{id, c.Instance, c.Node, v})
		}
		if v := diff(c.Scheduled, c.Localizing); v >= 0 {
			d.Localizations = append(d.Localizations, ContainerDelay{id, c.Instance, c.Node, v})
		}
		if v := diff(c.Running, c.Scheduled); v >= 0 && c.OppQueuedAt == 0 {
			d.Launchings = append(d.Launchings, ContainerDelay{id, c.Instance, c.Node, v})
		}
		if v := diff(c.LaunchInvoked, c.Scheduled); v >= 0 {
			d.Queueings = append(d.Queueings, ContainerDelay{id, c.Instance, c.Node, v})
		}
	}

	d.Anomalies = findAnomalies(a, firstTask)
	d.Complete = d.Total >= 0 && d.AM >= 0 && d.Driver >= 0 && d.Executor >= 0 &&
		len(d.Anomalies) == 0
	return d
}

// findAnomalies explains why a trace is partial or suspect: headline
// Table I messages that never arrived (dropped or truncated lines, app
// still in flight), containers the RM marked KILLED after losing their
// node, and timestamp pairs that run backwards (clock skew between the
// files the two observations came from). The list is bounded: per-check
// findings collapse into counts.
func findAnomalies(a *AppTrace, firstTask int64) []string {
	var out []string
	if a.Submitted == 0 {
		out = append(out, "SUBMITTED not observed")
	}
	if a.Registered == 0 {
		out = append(out, "AM registration not observed")
	}
	if am := a.AMContainer(); am == nil {
		out = append(out, "no AM container observed")
	} else if am.FirstLog == 0 {
		out = append(out, "AM container log not observed")
	}
	if firstTask == 0 {
		out = append(out, "no FIRST_TASK observed")
	}
	lost := 0
	for _, c := range a.Containers {
		if c.Lost > 0 {
			lost++
		}
	}
	if lost > 0 {
		out = append(out, fmt.Sprintf("%d container(s) lost to node failure", lost))
	}
	if n := countOrderViolations(a); n > 0 {
		out = append(out, fmt.Sprintf("%d out-of-order timestamp pair(s) (clock skew or corrupted stamps)", n))
	}
	return out
}

// countOrderViolations counts observed timestamp pairs that violate the
// causal order of the scheduling state machines. Pairs with either side
// unobserved (0) don't count — absence is reported separately.
func countOrderViolations(a *AppTrace) int {
	n := appOrderViolations(a)
	for _, c := range a.Containers {
		n += containerOrderViolations(c)
	}
	return n
}

// appOrderViolations counts countOrderViolations' application-level pairs.
func appOrderViolations(a *AppTrace) int {
	return outOfOrder(a.Submitted, a.Accepted) + outOfOrder(a.Accepted, a.Registered) +
		outOfOrder(a.Submitted, a.Finished)
}

// containerOrderViolations counts countOrderViolations' pairs within one
// container.
func containerOrderViolations(c *ContainerTrace) int {
	return outOfOrder(c.Allocated, c.Acquired) + outOfOrder(c.Acquired, c.Localizing) +
		outOfOrder(c.Localizing, c.Scheduled) + outOfOrder(c.Scheduled, c.Running) +
		outOfOrder(c.Running, c.FirstLog) + outOfOrder(c.FirstLog, c.FirstTask)
}

// outOfOrder is 1 when both observations exist and later precedes earlier.
func outOfOrder(earlier, later int64) int {
	if earlier > 0 && later > 0 && later < earlier {
		return 1
	}
	return 0
}
