// Command perfbench is the repository benchmark: it builds one workload's
// inputs from a seed, drives the geodabs stack through its public calls
// for a fixed number of seconds, checks every answer against an
// independent oracle, and prints one JSON line of metrics.
//
//	perfbench --workload local-dense --seed 1 --seconds 10 --trace 0
//	perfbench --workload rerank-exact --seed 101 --repeat 10
//
// With --trace 1 the run records spans around every call it makes into a
// module and prints the per-layer metrics instead of the end-to-end ones.
// With --repeat N the command runs the workload N times in child
// processes (seeds seed..seed+N-1) and prints each metric's median,
// quartiles and spread beside its bound from BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// runConfig is one run's parameters, fixed on the command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's printed lines, phase accounting, metrics and
// oracle verdicts.
type report struct {
	cfg      runConfig
	tr       *tracer
	phases   []*phase
	endToEnd map[string]metric
	layers   map[string]metric
	problems []string
}

func newReport(cfg runConfig) *report {
	return &report{
		cfg:      cfg,
		tr:       newTracer(cfg.trace),
		endToEnd: make(map[string]metric),
		layers:   make(map[string]metric),
	}
}

func (r *report) printf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

// e2e records an end-to-end metric (reported by untraced runs).
func (r *report) e2e(name string, v float64, unit string) {
	r.endToEnd[name] = metric{Value: v, Unit: unit}
}

// fail records an oracle mismatch; any mismatch fails the run.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*report) error{
	"local-dense":  runLocalDense,
	"rerank-exact": runRerankExact,
}

func main() {
	var cfg runConfig
	var traceFlag, repeat int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: local-dense or rerank-exact")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs and operation sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 36, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times in child processes and summarize")
	flag.Parse()
	cfg.trace = traceFlag == 1

	run, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	if repeat > 0 {
		if err := repeatRuns(cfg, repeat); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	r := newReport(cfg)
	r.printf("workload %s seed %d seconds %g trace %v GOMAXPROCS %d NumCPU %d %s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if err := run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	out := r.finish()
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// finish prints the phase accounting and the oracle verdict, writes the
// trace, and assembles the result line.
func (r *report) finish() result {
	var attempted, failed int64
	for _, p := range r.phases {
		r.printf("phase %-14s attempted %7d succeeded %7d failed %d", p.name, p.attempted(), p.attempted()-p.failedOps(), p.failedOps())
		attempted += p.attempted()
		failed += p.failedOps()
	}
	for _, p := range r.problems {
		r.printf("ORACLE MISMATCH: %s", p)
	}
	ms := r.endToEnd
	if r.cfg.trace {
		ms = r.layers
		path, err := r.tr.write(r.cfg)
		if err != nil {
			r.fail("writing trace: %v", err)
		} else {
			r.printf("trace: %d spans written to %s", r.tr.count(), path)
		}
	}
	for _, n := range sortedNames(ms) {
		r.printf("metric %-28s %14.6g %s", n, ms[n].Value, ms[n].Unit)
	}
	if attempted == 0 {
		r.fail("no operation was attempted")
		attempted = 1
	}
	return result{Correct: len(r.problems) == 0, Attempted: attempted, Failed: failed, Metrics: ms}
}

// errNoResult reports a child run that printed no result line.
var errNoResult = errors.New("no result line")

// lastJSON parses the last line of a run's output as a result.
func lastJSON(out string) (result, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if len(lines) == 0 {
		return res, errNoResult
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%w: %v", errNoResult, err)
	}
	return res, nil
}

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
