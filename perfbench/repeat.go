package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the repeat summary reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs the workload n times in child processes, one seed each
// (cfg.seed, cfg.seed+1, ...), and prints every metric's median,
// quartiles and relative spread — the quartile distance over the median —
// beside its bound, so steadiness is shown on seeds rather than assumed.
func repeatRuns(cfg runConfig, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			os.Stdout.Write(out)
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastJSON(string(out))
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Printf("seed %d: correct %v attempted %d failed %d", seed, res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedNames(res.Metrics) {
			m := res.Metrics[name]
			fmt.Printf(" %s=%.5g", name, m.Value)
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Println()
	}
	fmt.Printf("%-28s %-6s %14s %14s %14s %8s %7s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, name := range sortedNames(values) {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'f', 2, 64)
		}
		fmt.Printf("%-28s %-6s %14.6g %14.6g %14.6g %8.4f %7s\n", name, units[name], q1, q2, q3, spread, bound)
	}
	return nil
}
