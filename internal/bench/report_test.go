package bench

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"
)

func samplePoints() []Point {
	return []Point{
		{Experiment: "E3-write-distinct", Kind: "bsfs", Clients: 50, PerClientMBps: 124.2, MinMBps: 124.1, MaxMBps: 124.8, AggregateMBps: 6204.8, Duration: 8250 * time.Millisecond},
		{Experiment: "E3-write-distinct", Kind: "hdfs", Clients: 50, PerClientMBps: 59.9, MinMBps: 59.9, MaxMBps: 60.0, AggregateMBps: 2996.8, Duration: 17080 * time.Millisecond},
	}
}

func TestWritePointsTable(t *testing.T) {
	var sb strings.Builder
	WriteTable(&sb, ExperimentResult{Title: "E3", Points: samplePoints()})
	out := sb.String()
	for _, want := range []string{"--- E3 ---", "bsfs", "hdfs", "124.2", "59.9", "clients"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + blank + header + 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestWritePointsCSV(t *testing.T) {
	var sb strings.Builder
	WriteCSV(&sb, []ExperimentResult{{Points: samplePoints()}})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "experiment,fs,clients") {
		t.Fatalf("csv header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "E3-write-distinct,bsfs,50,124.20") {
		t.Fatalf("csv row = %q", lines[1])
	}
}

func sampleJobs() []AppResult {
	return []AppResult{{
		Experiment: "E4-random-text-writer",
		Kind:       "bsfs",
		Maps:       250,
		Completion: 24480 * time.Millisecond,
	}}
}

func TestWriteAppTable(t *testing.T) {
	var sb strings.Builder
	WriteTable(&sb, ExperimentResult{Title: "E4", Jobs: sampleJobs()})
	out := sb.String()
	for _, want := range []string{"E4-random-text-writer", "bsfs", "250", "24.48s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("app table missing %q:\n%s", want, out)
		}
	}
}

func TestSizeFormatting(t *testing.T) {
	cases := map[int64]string{
		512:           "512B",
		2 * KB:        "2.0KB",
		3 * MB:        "3.0MB",
		5 * GB:        "5.0GB",
		1536 * MB / 1: "1.5GB",
	}
	for n, want := range cases {
		if got := size(n); got != want {
			t.Errorf("size(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSummarizeStatistics(t *testing.T) {
	durations := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	p := summarize("x", "bsfs", 100*MB, durations, 4*time.Second)
	if p.Clients != 3 {
		t.Fatalf("clients = %d", p.Clients)
	}
	// Throughputs: 100, 50, 25 MB/s -> mean 58.33, min 25, max 100.
	if p.MaxMBps != 100 || p.MinMBps != 25 {
		t.Fatalf("min/max = %f/%f", p.MinMBps, p.MaxMBps)
	}
	if p.PerClientMBps < 58 || p.PerClientMBps > 59 {
		t.Fatalf("mean = %f", p.PerClientMBps)
	}
	if p.AggregateMBps != 75 { // 300 MB over 4 s
		t.Fatalf("aggregate = %f", p.AggregateMBps)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	p := summarize("x", "bsfs", 1, nil, 0)
	if p.Clients != 0 || p.PerClientMBps != 0 {
		t.Fatalf("empty summary = %+v", p)
	}
}

func TestFindExperiment(t *testing.T) {
	if _, ok := FindExperiment("e1"); !ok {
		t.Fatal("e1 not registered")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Fatal("bogus experiment found")
	}
	// Every registry entry has an id, title and runner.
	ids := map[string]bool{}
	for _, e := range Experiments {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"e1", "e2", "e3", "x1", "a1", "a2", "a3", "a4"} {
		if !ids[want] {
			t.Fatalf("experiment %s missing from registry", want)
		}
	}
}

func TestTestbedValidation(t *testing.T) {
	if _, err := NewTestbed(ClusterSpec{Nodes: 10}, StorageOpts{Kind: "ceph"}); err == nil {
		t.Fatal("unknown storage kind accepted")
	}
}

func TestClientNodeSpread(t *testing.T) {
	tb, err := NewTestbed(ClusterSpec{Nodes: 61, MetaNodes: 8}, StorageOpts{Kind: "bsfs"})
	if err != nil {
		t.Fatal(err)
	}
	nodes := tb.clientNodes(30)
	seen := map[int]bool{}
	for _, n := range nodes {
		if n < 1 || int(n) > 60 {
			t.Fatalf("client on node %d", n)
		}
		seen[tb.Net.Rack(n)] = true
	}
	if len(seen) < 2 {
		t.Fatal("clients not spread over racks")
	}
	// Loaders are never the readers themselves.
	for _, c := range nodes {
		if tb.loaderNode(c) == c {
			t.Fatalf("loader == reader for node %d", c)
		}
	}
}

func TestWriteResultsJSON(t *testing.T) {
	res := ExperimentResult{ID: "e3", Title: "E3", Points: samplePoints()}
	res.metric("publish_rate_n50", "versions/s", 812.5)
	var sb strings.Builder
	if err := WriteJSON(&sb, SweepOpts{Clients: []int{50}, Spec: ClusterSpec{Nodes: 90}}, []ExperimentResult{res}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `"jobs"`) {
		t.Fatalf("empty jobs not omitted:\n%s", sb.String())
	}
	var doc struct {
		Params struct {
			Clients []int `json:"clients"`
			Nodes   int   `json:"nodes"`
		} `json:"params"`
		Experiments []struct {
			ID     string `json:"id"`
			Points []struct {
				FS          string  `json:"fs"`
				MakespanSec float64 `json:"makespan_s"`
			} `json:"points"`
			Metrics []Metric `json:"metrics"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, sb.String())
	}
	if doc.Params.Nodes != 90 || len(doc.Params.Clients) != 1 {
		t.Fatalf("params = %+v", doc.Params)
	}
	if len(doc.Experiments) != 1 || doc.Experiments[0].ID != "e3" {
		t.Fatalf("experiments = %+v", doc.Experiments)
	}
	got := doc.Experiments[0]
	if len(got.Points) != 2 || got.Points[0].FS != "bsfs" || got.Points[0].MakespanSec != 8.25 {
		t.Fatalf("points = %+v", got.Points)
	}
	if len(got.Metrics) != 1 || got.Metrics[0].Name != "publish_rate_n50" || got.Metrics[0].Value != 812.5 {
		t.Fatalf("metrics = %+v", got.Metrics)
	}
}

// TestRenderersAgreeOnRows: table, CSV and JSON render the same rows
// (every point and job, keyed by experiment, fs and clients or maps)
// and table and JSON the same metrics, so no format drops what
// another shows.
func TestRenderersAgreeOnRows(t *testing.T) {
	res := ExperimentResult{ID: "x", Title: "X", Points: samplePoints(), Jobs: sampleJobs()}
	res.metric("goodput_open_10x", "ops/s", 788.4)
	res.metric("offered_open_10x", "ops", 23983)
	results := []ExperimentResult{res}
	want := []string{"E3-write-distinct,bsfs,50", "E3-write-distinct,hdfs,50", "E4-random-text-writer,bsfs,250"}

	var table strings.Builder
	WriteTable(&table, res)
	var tableRows []string
	tableMetrics := map[string]string{}
	for _, l := range strings.Split(table.String(), "\n") {
		f := strings.Fields(l)
		switch {
		case len(f) >= 3 && (f[1] == "bsfs" || f[1] == "hdfs"):
			tableRows = append(tableRows, strings.Join(f[:3], ","))
		case len(f) == 3 && f[0] != "metric" && f[0] != "---":
			tableMetrics[f[0]] = f[2]
		}
	}

	var csv strings.Builder
	WriteCSV(&csv, results)
	var csvRows []string
	for _, l := range strings.Split(strings.TrimSpace(csv.String()), "\n")[1:] {
		csvRows = append(csvRows, strings.Join(strings.Split(l, ",")[:3], ","))
	}

	var js strings.Builder
	if err := WriteJSON(&js, SweepOpts{}, results); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []struct {
			Points []struct {
				Experiment string `json:"experiment"`
				FS         string `json:"fs"`
				Clients    int    `json:"clients"`
			} `json:"points"`
			Jobs []struct {
				Experiment string `json:"experiment"`
				FS         string `json:"fs"`
				Maps       int    `json:"maps"`
			} `json:"jobs"`
			Metrics []Metric `json:"metrics"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal([]byte(js.String()), &doc); err != nil {
		t.Fatal(err)
	}
	var jsonRows []string
	jsonMetrics := map[string]string{}
	for _, e := range doc.Experiments {
		for _, p := range e.Points {
			jsonRows = append(jsonRows, fmt.Sprintf("%s,%s,%d", p.Experiment, p.FS, p.Clients))
		}
		for _, j := range e.Jobs {
			jsonRows = append(jsonRows, fmt.Sprintf("%s,%s,%d", j.Experiment, j.FS, j.Maps))
		}
		for _, m := range e.Metrics {
			jsonMetrics[m.Name] = m.Unit
		}
	}

	for name, rows := range map[string][]string{"table": tableRows, "csv": csvRows, "json": jsonRows} {
		if !slices.Equal(rows, want) {
			t.Errorf("%s rows = %q, want %q", name, rows, want)
		}
	}
	if len(jsonMetrics) != 2 || !maps.Equal(tableMetrics, jsonMetrics) {
		t.Errorf("table metrics %v, json metrics %v", tableMetrics, jsonMetrics)
	}
}
