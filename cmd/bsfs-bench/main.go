// Command bsfs-bench regenerates the paper's microbenchmark figures
// (E1 distinct-file reads, E2 shared-file reads, E3 distinct-file
// writes), the extensions (X1 concurrent appends, X2 shared-blob
// publish throughput, X3 provider failure/churn with replica repair,
// X5 sharded version-manager scaling, X6 membership churn, X7 tiered
// storage recovery over durable backends, X8 heavy-traffic serving
// with admission control) and the ablation studies (A1 placement, A2
// client cache, A3 page size, A4 HDFS write-through, A7 sharded vs
// centralized version management) on a simulated Grid'5000-style
// cluster. -list prints the registry these ids come from.
//
// Usage:
//
//	bsfs-bench                          # run everything at paper scale
//	bsfs-bench -exp e3                  # one experiment
//	bsfs-bench -clients 1,50,250        # custom sweep
//	bsfs-bench -size 256 -nodes 90      # reduced scale (MB per client)
//	bsfs-bench -replicas 3              # replicated deployments
//	bsfs-bench -exp a3 -csv             # sweep points as CSV on stdout
//	bsfs-bench -json results.json       # record results (name, params, metrics)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line and returns the exit status: 0 on
// success, 1 when an experiment or output fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	ids := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		ids[i] = e.ID
	}
	fs := flag.NewFlagSet("bsfs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id: "+strings.Join(ids, " ")+", or 'all'")
		clients  = fs.String("clients", "1,20,50,100,150,200,250", "comma-separated client counts")
		sizeMB   = fs.Int64("size", 1024, "data per client in MB (paper: 1024)")
		nodes    = fs.Int("nodes", 270, "cluster size (paper: 270)")
		cacheMB  = fs.Int64("cache", 512, "storage-node RAM cache in MB")
		replicas = fs.Int("replicas", 1, "data replication factor for both systems")
		csv      = fs.Bool("csv", false, "emit the sweep points as CSV instead of tables")
		jsonPath = fs.String("json", "", "also write results (name, params, metrics) as JSON to this path")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var counts []int
	for _, part := range strings.Split(*clients, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(stderr, "bsfs-bench: bad client count %q\n", part)
			return 2
		}
		counts = append(counts, n)
	}
	for _, n := range counts {
		if n > *nodes-1 {
			fmt.Fprintf(stderr, "bsfs-bench: %d clients exceed %d storage nodes\n", n, *nodes-1)
			return 2
		}
	}

	opts := bench.SweepOpts{
		Clients:        counts,
		BytesPerClient: *sizeMB * bench.MB,
		Spec:           bench.ClusterSpec{Nodes: *nodes},
		MemCapacity:    *cacheMB * bench.MB,
		Replication:    *replicas,
	}

	var todo []bench.Experiment
	if *exp == "all" {
		todo = bench.Experiments
	} else {
		e, ok := bench.FindExperiment(*exp)
		if !ok {
			fmt.Fprintf(stderr, "bsfs-bench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		todo = []bench.Experiment{e}
	}

	// Tables and banners go to stdout unless stdout carries CSV, which
	// is rendered from the recorded points once every experiment ran.
	tables := stdout
	if *csv {
		tables = io.Discard
	}
	var results []bench.ExperimentResult
	var points []bench.Point
	for _, e := range todo {
		fmt.Fprintf(tables, "\n--- %s ---\n", e.Title)
		rec := &bench.Recorder{Writer: tables}
		if err := e.Run(opts, rec); err != nil {
			fmt.Fprintf(stderr, "bsfs-bench: %s: %v\n", e.ID, err)
			return 1
		}
		results = append(results, bench.NewExperimentResult(e, rec))
		points = append(points, rec.Points...)
	}
	if *csv {
		bench.WritePointsCSV(stdout, points)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err == nil {
			err = bench.WriteResultsJSON(f, opts, results)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bsfs-bench: writing %s: %v\n", *jsonPath, err)
			return 1
		}
		fmt.Fprintf(tables, "\nwrote %s\n", *jsonPath)
	}
	return 0
}
