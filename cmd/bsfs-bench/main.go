// Command bsfs-bench regenerates the paper's evaluation on a
// simulated Grid'5000-style cluster: the microbenchmark figures (E1
// distinct-file reads, E2 shared-file reads, E3 distinct-file writes),
// the MapReduce application benchmarks (E4 Random Text Writer, E5
// Distributed Grep; job completion time with -clients maps of -size MB
// each), the extensions (X1 concurrent appends, X2 shared-blob publish
// throughput, X3 provider failure/churn with replica repair, X4
// concurrent MapReduce jobs on different snapshots, X5 sharded
// version-manager scaling, X6 membership churn, X7 tiered storage
// recovery over durable backends, X8 heavy-traffic serving with
// admission control) and the ablation studies (A1 placement, A2 client
// cache, A3 page size, A4 HDFS write-through, A7 sharded vs
// centralized version management). -list prints the registry these
// ids come from.
//
// Each experiment's table prints as it finishes. When one fails, what
// it measured is still rendered before the command exits 1.
//
// Usage:
//
//	bsfs-bench                          # run everything at paper scale
//	bsfs-bench -exp e3                  # one experiment
//	bsfs-bench -exp e4 -clients 250     # RTW job with 250 maps
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

	// Tables go to stdout as each experiment finishes unless stdout
	// carries CSV, which is rendered once every experiment ran.
	var results []bench.ExperimentResult
	status := 0
	for _, e := range todo {
		res, err := e.Run(opts)
		res.ID, res.Title = e.ID, e.Title
		results = append(results, res)
		if !*csv {
			bench.WriteTable(stdout, res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bsfs-bench: %s: %v\n", e.ID, err)
			status = 1
			break
		}
	}
	if *csv {
		bench.WriteCSV(stdout, results)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err == nil {
			err = bench.WriteJSON(f, opts, results)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "bsfs-bench: writing %s: %v\n", *jsonPath, err)
			return 1
		}
		if !*csv {
			fmt.Fprintf(stdout, "\nwrote %s\n", *jsonPath)
		}
	}
	return status
}
