package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/log4j"
)

func writeLines(t *testing.T, path string, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := f.WriteString(l + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

func mkLine(off int64, class, msg string) string {
	return log4j.Line{TimeMS: 1499000000000 + off, Level: log4j.Info, Class: class, Message: msg}.Format()
}

func TestDrainFileIncremental(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	app := "application_1499000000000_0001"

	sc := newDirScanner(dir, core.NewStream())

	writeLines(t, rm, mkLine(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"))
	fed, err := sc.drainFile(rm, "rm.log")
	if err != nil || fed != 1 {
		t.Fatalf("first drain: fed=%v err=%v", fed, err)
	}
	// No growth: nothing new.
	fed, err = sc.drainFile(rm, "rm.log")
	if err != nil || fed != 0 {
		t.Fatalf("idle drain reported change: %v %v", fed, err)
	}
	// Append: only the new line is consumed.
	writeLines(t, rm, mkLine(5000, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"))
	fed, err = sc.drainFile(rm, "rm.log")
	if err != nil || fed != 1 {
		t.Fatalf("append drain: fed=%v err=%v", fed, err)
	}
	if sc.st.EventCount() != 2 {
		t.Fatalf("events=%d, want 2 (no re-reads)", sc.st.EventCount())
	}
	a := sc.st.Apps()[0]
	if a.Registered-a.Submitted != 4900 {
		t.Fatalf("am delay %d, want 4900", a.Registered-a.Submitted)
	}
}

func TestDrainFileContainerLog(t *testing.T) {
	dir := t.TempDir()
	rel := "userlogs/application_1499000000000_0001/container_1499000000000_0001_01_000002/stderr"
	abs := filepath.Join(dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(abs), 0o755); err != nil {
		t.Fatal(err)
	}
	sc := newDirScanner(dir, core.NewStream())
	writeLines(t, abs, mkLine(7000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Started daemon"))
	if fed, err := sc.drainFile(abs, rel); err != nil || fed != 1 {
		t.Fatalf("container drain: %v %v", fed, err)
	}
	writeLines(t, abs, mkLine(9000, "org.apache.spark.executor.CoarseGrainedExecutorBackend", "Got assigned task 0"))
	if fed, err := sc.drainFile(abs, rel); err != nil || fed != 1 {
		t.Fatalf("container append drain: %v %v", fed, err)
	}
	c := sc.st.Apps()[0].Containers[0]
	if c.FirstLog == 0 || c.FirstTask == 0 {
		t.Fatalf("container trace incomplete: %+v", c)
	}
	if c.FirstLog != 1499000007000 {
		t.Fatalf("first log %d moved across drains", c.FirstLog)
	}
}

// recordingStream passes lines through to a real stream and keeps a
// copy of each, so a test sees exactly what the scanner fed.
type recordingStream struct {
	ingestStream
	fed []string
}

func (r *recordingStream) Feed(source, line string) bool {
	r.fed = append(r.fed, line)
	return r.ingestStream.Feed(source, line)
}

func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// TestDrainFileTornLine: a line caught mid-write is not fed until its
// newline lands, and is then fed whole, exactly once.
func TestDrainFileTornLine(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	rec := &recordingStream{ingestStream: core.NewStream()}
	sc := newDirScanner(dir, rec)

	first := mkLine(100, "x.RMAppImpl", "application_1499000000000_0001 State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED")
	torn := mkLine(200, "x.Server", "hello world")
	appendRaw(t, rm, first+"\n"+torn[:len(torn)-2])
	if _, err := sc.drainFile(rm, "rm.log"); err != nil {
		t.Fatal(err)
	}
	if len(rec.fed) != 1 || rec.fed[0] != first {
		t.Fatalf("after the torn write, fed %q; want only the complete first line", rec.fed)
	}
	if _, err := sc.drainFile(rm, "rm.log"); err != nil || len(rec.fed) != 1 {
		t.Fatalf("re-scan without new bytes fed %q (err %v)", rec.fed[1:], err)
	}
	appendRaw(t, rm, "ld\n")
	if _, err := sc.drainFile(rm, "rm.log"); err != nil {
		t.Fatal(err)
	}
	if len(rec.fed) != 2 || rec.fed[1] != torn {
		t.Fatalf("fed %q; want the torn line once, whole: %q", rec.fed[1:], torn)
	}
	if rec.EventCount() != 1 {
		t.Fatalf("events=%d, want 1", rec.EventCount())
	}

	// A line longer than one read, torn mid-way, carries over too.
	big := mkLine(300, "x.Server", strings.Repeat("y", 3*readChunk))
	appendRaw(t, rm, big[:2*readChunk])
	if _, err := sc.drainFile(rm, "rm.log"); err != nil || len(rec.fed) != 2 {
		t.Fatalf("torn long line fed early: %d lines (err %v)", len(rec.fed), err)
	}
	appendRaw(t, rm, big[2*readChunk:]+"\n")
	if _, err := sc.drainFile(rm, "rm.log"); err != nil {
		t.Fatal(err)
	}
	if len(rec.fed) != 3 || rec.fed[2] != big {
		t.Fatalf("long line fed as %d lines; want it once, whole", len(rec.fed)-2)
	}
}

// TestDrainFileCRLF: CRLF lines are fed once each, without the '\r',
// and the offset lands on the file's end, so later scans feed only
// what is appended.
func TestDrainFileCRLF(t *testing.T) {
	dir := t.TempDir()
	rm := filepath.Join(dir, "rm.log")
	rec := &recordingStream{ingestStream: core.NewStream()}
	sc := newDirScanner(dir, rec)
	app := "application_1499000000000_0001"
	lines := []string{
		mkLine(100, "x.RMAppImpl", app+" State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED"),
		mkLine(300, "x.RMAppImpl", app+" State change from SUBMITTED to ACCEPTED on event = APP_ACCEPTED"),
		mkLine(5000, "x.RMAppImpl", app+" State change from ACCEPTED to RUNNING on event = ATTEMPT_REGISTERED"),
	}
	appendRaw(t, rm, lines[0]+"\r\n"+lines[1]+"\r\n")
	for i := 0; i < 3; i++ {
		if _, err := sc.drainFile(rm, "rm.log"); err != nil {
			t.Fatal(err)
		}
	}
	appendRaw(t, rm, lines[2]+"\r\n")
	if _, err := sc.drainFile(rm, "rm.log"); err != nil {
		t.Fatal(err)
	}
	if len(rec.fed) != 3 {
		t.Fatalf("fed %d lines, want 3: %q", len(rec.fed), rec.fed)
	}
	for i, l := range lines {
		if rec.fed[i] != l {
			t.Fatalf("line %d fed as %q, want %q", i, rec.fed[i], l)
		}
	}
	info, err := os.Stat(rm)
	if err != nil {
		t.Fatal(err)
	}
	if sc.offsets["rm.log"] != info.Size() {
		t.Fatalf("offset %d, file size %d", sc.offsets["rm.log"], info.Size())
	}
	if rec.EventCount() != 3 {
		t.Fatalf("events=%d, want 3", rec.EventCount())
	}
}
