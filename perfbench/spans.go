package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program under test is not instrumented).
type span struct {
	ID     int
	Parent int // 0 = root
	Name   string
	Start  time.Time
	End    time.Time
	// Async marks a span that ran on another goroutine while its parent
	// waited (the completion hook on a shard worker). Its time overlaps
	// the parent's instead of being part of it, so it is not subtracted
	// from the parent's self time.
	Async bool
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory for one run. A nil recorder records
// nothing, so the untraced paths pay one nil check per call.
type recorder struct {
	runID string
	mu    sync.Mutex
	spans []span
}

func newRecorder(runID string) *recorder { return &recorder{runID: runID} }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-timed span.
func (r *recorder) add(parent int, name string, start, end time.Time, async bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: start, End: end, Async: async})
	r.mu.Unlock()
}

// mark returns the number of spans recorded so far, to delimit a pass.
func (r *recorder) mark() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes sums, per span name, each span's duration minus the part
// covered by its synchronous children, over the spans recorded between
// two marks. Children run sequentially on the parent's goroutine, so
// their durations do not overlap.
func (r *recorder) selfTimes(from, to int) map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := map[int]time.Duration{}
	for _, s := range r.spans[from:to] {
		self[s.ID] += s.dur()
		if !s.Async && s.Parent > from {
			self[s.Parent] -= s.dur()
		}
	}
	out := map[string]time.Duration{}
	for id, d := range self {
		out[r.spans[id-1].Name] += d
	}
	return out
}

// durations returns the durations of the spans with the given name
// recorded between two marks.
func (r *recorder) durations(name string, from, to int) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans[from:to] {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (the
// format the repository's sim.ChromeTrace emits, at microsecond
// resolution), which Perfetto and chrome://tracing open directly.
// Synchronous spans share one track; async ones get a second.
func (r *recorder) writeChromeTrace(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 {
		return nil
	}
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	t0 := r.spans[0].Start
	for _, s := range r.spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	events := []event{
		{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]string{"name": r.runID}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]string{"name": "driver"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 2, Args: map[string]string{"name": "completion hook"}},
	}
	spans := append([]span(nil), r.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	for _, s := range spans {
		tid := 1
		if s.Async {
			tid = 2
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]string{
				"run": r.runID, "id": fmt.Sprint(s.ID), "parent": fmt.Sprint(s.Parent),
			},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
