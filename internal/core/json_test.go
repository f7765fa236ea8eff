package core

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ids"
)

func TestJSONExportRoundTrips(t *testing.T) {
	rep := analyze(t, buildSparkCorpus())
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal([]byte(out), &decoded); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(decoded) != 1 {
		t.Fatalf("apps=%d", len(decoded))
	}
	app := decoded[0]
	if app["app"] != "application_1499000000000_0001" {
		t.Fatalf("app id: %v", app["app"])
	}
	dec := app["decomposition"].(map[string]any)
	if dec["total_ms"].(float64) != 11900 {
		t.Fatalf("total: %v", dec["total_ms"])
	}
	if _, ok := app["critical_path"]; !ok {
		t.Fatal("critical path missing from export")
	}
	conts := app["containers"].([]any)
	if len(conts) != 3 {
		t.Fatalf("containers=%d", len(conts))
	}
	if !strings.Contains(out, "\"instance\": \"spe\"") {
		t.Fatal("instance labels missing")
	}
}

func TestJSONExportEmpty(t *testing.T) {
	out, err := ReportFrom(nil, nil).JSON()
	if err != nil || out != "[]" {
		t.Fatalf("empty export: %q %v", out, err)
	}
}

// marshalWhole is the reference Report.JSON is spliced to match: the
// whole []jsonApp through one json.MarshalIndent.
func marshalWhole(t *testing.T, r *Report) string {
	t.Helper()
	out := make([]jsonApp, 0, len(r.Apps))
	for _, a := range r.Apps {
		out = append(out, newJSONApp(a))
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJSONSpliceMatchesMarshal pins the per-app render: splicing the
// apps' separately indented objects must give exactly the bytes of
// marshalling the whole array, escaping included.
func TestJSONSpliceMatchesMarshal(t *testing.T) {
	odd := "q<1> & r>0 \u2028 Größe 日本"
	bare := &AppTrace{ID: ids.AppID{ClusterTS: 1499000000000, Seq: 7}, Name: odd, AppType: "SPARK&<>", Queue: "root.\u2028é"}
	anomalous := analyze(t, buildSparkCorpus()).Apps[0]
	anomalous.Name = odd
	anomalous.Decomp.Anomalies = []string{"lost <node> & \u2029 überall", "second"}
	golden, err := MineDir(filepath.Join("testdata", "golden", "faulted", "input"), 2)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]*Report{
		"no apps":                     ReportFrom(nil, nil),
		"zero report":                 {},
		"one app":                     analyze(t, buildSparkCorpus()),
		"nil Decomp, no containers":   {Apps: []*AppTrace{bare}},
		"escaped names and anomalies": {Apps: []*AppTrace{anomalous, bare}},
		"multi-app corpus":            analyze(t, buildMultiAppCorpus(5)),
		"faulted golden tree":         golden,
	}
	for name, r := range cases {
		got, err := r.JSON()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := marshalWhole(t, r); got != want {
			t.Errorf("%s: spliced JSON diverges from whole-array MarshalIndent:\n%s\nwant\n%s", name, got, want)
		}
	}
	if got, _ := cases["escaped names and anomalies"].JSON(); !strings.Contains(got, `\u003c`) || !strings.Contains(got, `\u2028`) {
		t.Errorf("escaping case did not exercise HTML and line-separator escapes:\n%s", got)
	}
}
