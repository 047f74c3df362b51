package main

import (
	"bytes"
	"go/parser"
	"go/token"
	"regexp"
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
