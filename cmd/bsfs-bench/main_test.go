package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestCSVHonorsExp is the regression test for -csv ignoring -exp: the
// CSV must carry the selected experiment's sweep points and nothing
// else — no other experiment's rows, no banners or tables.
func TestCSVHonorsExp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "a3", "-csv", "-clients", "1", "-size", "4", "-nodes", "8", "-cache", "16"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if lines[0] != "experiment,fs,clients,per_client_mbps,min_mbps,max_mbps,aggregate_mbps,makespan_s" {
		t.Fatalf("first line %q is not the CSV header", lines[0])
	}
	if len(lines) < 2 {
		t.Fatal("no data rows")
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "A3-") || strings.Count(l, ",") != 7 {
			t.Fatalf("row %q is not an A3 CSV row", l)
		}
	}
}

// tiny is the smallest cluster the whole registry runs on.
var tiny = []string{"-size", "4", "-nodes", "12", "-cache", "16"}

// TestE4CSVJobRows: the MapReduce experiments render their jobs as CSV
// rows, one per storage kind, with maps in the clients column.
func TestE4CSVJobRows(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-exp", "e4", "-csv", "-clients", "4"}, tiny...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 job rows:\n%s", stdout.String())
	}
	for i, kind := range []string{"bsfs", "hdfs"} {
		row := lines[i+1]
		if !strings.HasPrefix(row, "E4-random-text-writer,"+kind+",4,,,,,") || strings.Count(row, ",") != 7 {
			t.Fatalf("row %q is not an E4 %s job row", row, kind)
		}
	}
}

// TestJSONCarriesTextMetrics: every metric the text output of x2 shows
// is in its JSON, with the same unit and value.
func TestJSONCarriesTextMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x2.json")
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-exp", "x2", "-clients", "1,2", "-json", path}, tiny...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []struct {
			Metrics []bench.Metric `json:"metrics"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	inJSON := map[string]bench.Metric{}
	for _, m := range doc.Experiments[0].Metrics {
		inJSON[m.Name] = m
	}
	// Metric rows follow the "metric value unit" header up to the next
	// blank line.
	shown := 0
	_, table, _ := strings.Cut(stdout.String(), "metric")
	for _, l := range strings.Split(table, "\n")[1:] {
		f := strings.Fields(l)
		if len(f) != 3 {
			break
		}
		shown++
		m, ok := inJSON[f[0]]
		v, err := strconv.ParseFloat(f[1], 64)
		if !ok || err != nil || m.Unit != f[2] || math.Abs(v-m.Value) > 1e-5*math.Abs(m.Value) {
			t.Errorf("text metric %q not in JSON as shown (json %+v)", l, m)
		}
	}
	if shown == 0 || shown != len(inJSON) {
		t.Fatalf("text shows %d metrics, JSON has %d:\n%s", shown, len(inJSON), stdout.String())
	}
}

// TestUsageListsRegistry: the -exp help names exactly the registered
// experiments.
func TestUsageListsRegistry(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-h"}, &bytes.Buffer{}, &stderr); code != 0 {
		t.Fatalf("-h exit %d", code)
	}
	var ids []string
	for _, e := range bench.Experiments {
		ids = append(ids, e.ID)
	}
	want := "experiment id: " + strings.Join(ids, " ") + ", or 'all'"
	if !strings.Contains(stderr.String(), want) {
		t.Fatalf("usage lacks %q:\n%s", want, stderr.String())
	}
}

// TestDocListsRegistry: the package doc names every registered
// experiment and no experiment id that is not registered.
func TestDocListsRegistry(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	registered := map[string]bool{}
	for _, e := range bench.Experiments {
		id := strings.ToUpper(e.ID)
		registered[id] = true
		if !regexp.MustCompile(`\b` + id + `\b`).MatchString(doc) {
			t.Errorf("package doc does not mention %s", id)
		}
	}
	// Ranges like "E1-E3" name their endpoints; every id written out
	// must be registered.
	for _, id := range regexp.MustCompile(`\b[EXA]\d+\b`).FindAllString(doc, -1) {
		if !registered[id] {
			t.Errorf("package doc mentions unregistered experiment %s", id)
		}
	}
}
