// Command fairbench is the fairrank benchmark: it drives in-process
// fairrank.Server nodes over loopback HTTP, checks every answer against a
// library Designer built from the same spec, and prints its metrics. See
// README.md in this directory for the workloads and metrics.
//
//	go run . --workload design-loop --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run prints the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed   int64
	dur    time.Duration
	traced bool
	sz     sizing
	// corrupt makes the checker alter the first served answer it sees
	// before comparing it, so the self-test can prove a wrong answer is
	// counted as failed.
	corrupt bool
}

// workload is one traffic mix.
type workload struct {
	name string
	run  func(ctx context.Context, cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"design-loop", runDesignLoop},
	{"bulk-batch", runBulkBatch},
	{"patch-churn", runPatchChurn},
	{"cluster-read", runClusterRead},
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the metrics
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) count(l loopResult) {
	r.attempted += l.attempted
	r.failed += l.failed
}

func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fairbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "fairbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1, sz: fullSizes}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	res, err := w.run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "fairbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := report(stdout, w.name, cfg, res); err != nil {
		fmt.Fprintf(stderr, "fairbench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		fmt.Fprintf(stderr, "fairbench: %s: %d of %d requests failed or answered wrongly\n", w.name, res.failed, res.attempted)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// host records where a result was measured.
type host struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the host record, the workload's notes, every metric of the
// run's kind with its unit, and the final JSON line.
func report(w io.Writer, name string, cfg runConfig, res *result) error {
	h, err := json.Marshal(host{Workload: name, Seed: cfg.seed, Seconds: cfg.dur.Seconds(), Trace: cfg.traced,
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", h)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		fmt.Fprintf(w, "%-36s %14.4f %s\n", d.name, v, d.unit)
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-36s %14.4f fraction (%d of %d requests)\n", "failed_frac", failedFrac, res.failed, res.attempted)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}
