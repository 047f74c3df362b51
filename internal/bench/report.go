// report.go renders experiment results as the tables/series the paper
// reports. Every output format — aligned tables, CSV and JSON — is one
// function over ExperimentResult.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"
	"time"
)

// ExperimentResult is everything one experiment measured: its sweep
// points, its MapReduce job rows and its named scalar metrics.
type ExperimentResult struct {
	ID      string
	Title   string
	Points  []Point
	Jobs    []AppResult
	Metrics []Metric
}

// Metric is one named scalar result of an experiment.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// metric appends one named scalar result.
func (r *ExperimentResult) metric(name, unit string, value float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: unit, Value: value})
}

// WriteTable renders one result under its title: the sweep points (the
// series behind the paper's throughput figures), the job rows (its job
// completion time comparison), then the metrics.
func WriteTable(w io.Writer, r ExperimentResult) {
	fmt.Fprintf(w, "\n--- %s ---\n", r.Title)
	if len(r.Points) > 0 {
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "experiment\tfs\tclients\tper-client MB/s\tmin\tmax\taggregate MB/s\tmakespan\tnet\tdisk")
		for _, p := range r.Points {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%s\t%s\t%s\n",
				p.Experiment, p.Kind, p.Clients, p.PerClientMBps, p.MinMBps, p.MaxMBps, p.AggregateMBps,
				p.Duration.Round(timeUnit(p.Duration)), size(p.NetBytes), size(p.DiskBytes))
		}
		tw.Flush()
	}
	if len(r.Jobs) > 0 {
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "experiment\tfs\tmaps\tcompletion\tinput\tshuffle\toutput\tlocal/rack/remote")
		for _, j := range r.Jobs {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\t%d/%d/%d\n",
				j.Experiment, j.Kind, j.Maps, j.Completion.Round(timeUnit(j.Completion)),
				size(j.Counters.InputBytes), size(j.Counters.ShuffleBytes), size(j.Counters.OutputBytes),
				j.Counters.DataLocal, j.Counters.RackLocal, j.Counters.Remote)
		}
		tw.Flush()
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintln(w)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tvalue\tunit")
		for _, m := range r.Metrics {
			fmt.Fprintf(tw, "%s\t%s\t%s\n", m.Name, metricValue(m.Value), m.Unit)
		}
		tw.Flush()
	}
}

// metricValue prints whole values without a fraction and the rest to
// six significant digits.
func metricValue(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// WriteCSV emits the sweep points and job rows of every result under
// one header. A job row carries its map count as clients and its
// completion time as makespan; its MB/s fields are empty.
func WriteCSV(w io.Writer, results []ExperimentResult) {
	fmt.Fprintln(w, "experiment,fs,clients,per_client_mbps,min_mbps,max_mbps,aggregate_mbps,makespan_s")
	for _, r := range results {
		for _, p := range r.Points {
			fmt.Fprintf(w, "%s,%s,%d,%.2f,%.2f,%.2f,%.2f,%.2f\n",
				p.Experiment, p.Kind, p.Clients, p.PerClientMBps, p.MinMBps, p.MaxMBps, p.AggregateMBps, p.Duration.Seconds())
		}
		for _, j := range r.Jobs {
			fmt.Fprintf(w, "%s,%s,%d,,,,,%.2f\n", j.Experiment, j.Kind, j.Maps, j.Completion.Seconds())
		}
	}
}

func size(n int64) string {
	switch {
	case n >= GB:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(MB))
	case n >= KB:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(KB))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// timeUnit picks a rounding granularity readable at the duration's
// scale.
func timeUnit(d time.Duration) time.Duration {
	if d > 16*time.Minute {
		return time.Second
	}
	return 10 * time.Millisecond
}

// ms renders a duration as fractional milliseconds for the JSON schema.
func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// resultsFile is the top-level document written by bsfs-bench -json:
// the sweep parameters plus one record per experiment — the
// BENCH_*.json perf-trajectory format.
type resultsFile struct {
	Params      paramsJSON       `json:"params"`
	Experiments []experimentJSON `json:"experiments"`
}

type paramsJSON struct {
	Clients        []int `json:"clients"`
	BytesPerClient int64 `json:"bytes_per_client"`
	Nodes          int   `json:"nodes"`
	MemCapacity    int64 `json:"mem_capacity"`
	Replication    int   `json:"replication"`
}

type experimentJSON struct {
	ID      string      `json:"id"`
	Title   string      `json:"title"`
	Points  []pointJSON `json:"points,omitempty"`
	Jobs    []jobJSON   `json:"jobs,omitempty"`
	Metrics []Metric    `json:"metrics,omitempty"`
}

// pointJSON is Point in stable machine-readable form (durations as
// seconds, not nanosecond ints).
type pointJSON struct {
	Experiment    string  `json:"experiment"`
	FS            string  `json:"fs"`
	Clients       int     `json:"clients"`
	PerClientMBps float64 `json:"per_client_mbps"`
	MinMBps       float64 `json:"min_mbps"`
	MaxMBps       float64 `json:"max_mbps"`
	AggregateMBps float64 `json:"aggregate_mbps"`
	MakespanSec   float64 `json:"makespan_s"`
	NetBytes      int64   `json:"net_bytes"`
	DiskBytes     int64   `json:"disk_bytes"`
	// Latency-distribution quantiles of the per-client (or per-op)
	// completion times, in milliseconds; omitted when the experiment
	// recorded no distribution.
	P50Ms float64 `json:"p50_ms,omitempty"`
	P90Ms float64 `json:"p90_ms,omitempty"`
	P99Ms float64 `json:"p99_ms,omitempty"`
}

// jobJSON is AppResult in stable machine-readable form.
type jobJSON struct {
	Experiment    string  `json:"experiment"`
	FS            string  `json:"fs"`
	Maps          int     `json:"maps"`
	CompletionSec float64 `json:"completion_s"`
	InputBytes    int64   `json:"input_bytes"`
	ShuffleBytes  int64   `json:"shuffle_bytes"`
	OutputBytes   int64   `json:"output_bytes"`
	DataLocal     int     `json:"data_local"`
	RackLocal     int     `json:"rack_local"`
	Remote        int     `json:"remote"`
}

// WriteJSON serializes experiment results with the sweep parameters
// that produced them.
func WriteJSON(w io.Writer, opts SweepOpts, results []ExperimentResult) error {
	opts.fillDefaults()
	doc := resultsFile{
		Params: paramsJSON{
			Clients:        opts.Clients,
			BytesPerClient: opts.BytesPerClient,
			Nodes:          opts.Spec.Nodes,
			MemCapacity:    opts.MemCapacity,
			Replication:    opts.Replication,
		},
	}
	for _, r := range results {
		e := experimentJSON{ID: r.ID, Title: r.Title, Metrics: r.Metrics}
		for _, p := range r.Points {
			e.Points = append(e.Points, pointJSON{
				Experiment:    p.Experiment,
				FS:            p.Kind,
				Clients:       p.Clients,
				PerClientMBps: p.PerClientMBps,
				MinMBps:       p.MinMBps,
				MaxMBps:       p.MaxMBps,
				AggregateMBps: p.AggregateMBps,
				MakespanSec:   p.Duration.Seconds(),
				NetBytes:      p.NetBytes,
				DiskBytes:     p.DiskBytes,
				P50Ms:         ms(p.P50),
				P90Ms:         ms(p.P90),
				P99Ms:         ms(p.P99),
			})
		}
		for _, j := range r.Jobs {
			e.Jobs = append(e.Jobs, jobJSON{
				Experiment:    j.Experiment,
				FS:            j.Kind,
				Maps:          j.Maps,
				CompletionSec: j.Completion.Seconds(),
				InputBytes:    j.Counters.InputBytes,
				ShuffleBytes:  j.Counters.ShuffleBytes,
				OutputBytes:   j.Counters.OutputBytes,
				DataLocal:     j.Counters.DataLocal,
				RackLocal:     j.Counters.RackLocal,
				Remote:        j.Counters.Remote,
			})
		}
		doc.Experiments = append(doc.Experiments, e)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
