package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// selfTestSizes are the tiny generator sizes the self-test runs at.
var selfTestSizes = map[string]int{"meteo-report": 400, "webkit-lookup": 2000, "meteo-refresh": 600}

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// selfTest runs every workload at a tiny size, timed and traced, and
// checks that each run is correct and prints every metric BENCHMARK.json
// names with its unit; then it alters one response of a timed run and
// checks that the run counts it as failed.
func selfTest(bin, workdir string) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := lookupWorkload(sw.Name)
		if !ok {
			return fmt.Errorf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		cfg := runConfig{w: w, n: selfTestSizes[w.name], seed: 7, seconds: 2, server: bin, workdir: workdir}
		res, err := timedRun(cfg)
		if err != nil {
			return fmt.Errorf("%s timed: %w", w.name, err)
		}
		if err := checkRun(res, spec.EndToEnd); err != nil {
			return fmt.Errorf("%s timed: %w", w.name, err)
		}
		if res, err = tracedRun(cfg); err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		if err := checkRun(res, spec.PerLayer); err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		cfg.tamper = true
		if res, err = timedRun(cfg); err != nil {
			return fmt.Errorf("%s altered: %w", w.name, err)
		}
		if res.Correct || res.Failed < 1 {
			return fmt.Errorf("%s: an altered response was not counted as failed (failed=%d)", w.name, res.Failed)
		}
		fmt.Printf("self-test %s: metrics complete, altered response counted as failed (%d of %d)\n", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// checkRun checks that a run was correct and reported exactly the named
// metrics, each with its unit.
func checkRun(res result, want []specMetric) error {
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		return fmt.Errorf("run not correct: attempted %d, failed %d", res.Attempted, res.Failed)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s not reported", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	return nil
}
