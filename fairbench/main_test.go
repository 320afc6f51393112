package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

type printed struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at tiny sizes and parses its result line.
func runTiny(t *testing.T, name string, traced, corrupt bool) printed {
	t.Helper()
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		cfg := runConfig{seed: 3, dur: 300 * time.Millisecond, traced: traced, sz: tinySizes, corrupt: corrupt}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		res, err := w.run(ctx, cfg)
		if err != nil {
			t.Fatalf("%s (traced=%v): %v", name, traced, err)
		}
		var out bytes.Buffer
		if err := report(&out, name, cfg, res); err != nil {
			t.Fatalf("%s (traced=%v): %v", name, traced, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var p printed
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", name, err)
		}
		return p
	}
	t.Fatalf("no workload %q", name)
	return printed{}
}

// Every workload named in BENCHMARK.json must run, pass its answer checks,
// and print every end-to-end metric (untraced) and every per-layer metric
// (traced) with the unit BENCHMARK.json gives it.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			p := runTiny(t, w.Name, traced, false)
			if !p.Correct || p.Failed != 0 || p.Attempted < 1 {
				t.Errorf("%s (traced=%v): correct=%v failed=%d attempted=%d", w.Name, traced, p.Correct, p.Failed, p.Attempted)
			}
			if len(p.Metrics) != len(want) {
				t.Errorf("%s (traced=%v): printed %d metrics, BENCHMARK.json names %d", w.Name, traced, len(p.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := p.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s (traced=%v): metric %s printed=%v unit %q, want unit %q", w.Name, traced, name, ok, got.Unit, unit)
				}
			}
		}
	}
}

// A served answer altered by one ulp must be counted as failed and make the
// result incorrect, on the single-query, batch and cluster checkers alike.
func TestCorruptedAnswerIsCounted(t *testing.T) {
	for _, name := range []string{"design-loop", "bulk-batch", "cluster-read"} {
		p := runTiny(t, name, false, true)
		if p.Correct || p.Failed < 1 {
			t.Errorf("%s: corrupted answer not caught: correct=%v failed=%d of %d", name, p.Correct, p.Failed, p.Attempted)
		}
	}
}
