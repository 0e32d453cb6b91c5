// Command perfbench is the repository benchmark. It drives the simulator and
// the gmpd decision service in-process, one workload per run, checks their
// outputs against oracles, and prints every metric by name and unit; the
// last line of standard output is one JSON object with the result.
//
//	bash perfbench/run.sh --workload route-cold --seed 3 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, and reports the per-layer metrics
// and the tracing overhead. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	e2e      map[string]metric
	layer    map[string]metric
	problems []string
	notes    []string
}

func newResult() *result {
	return &result{Correct: true, e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail records an oracle violation; the run then exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// note records a line of context printed with the metrics.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) endToEnd(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *result) perLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// config is one run's command line.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
}

// phase returns the length of a phase taking frac of the run's seconds.
func (c config) phase(frac float64) time.Duration {
	return time.Duration(frac * c.Seconds * float64(time.Second))
}

var workloads = map[string]func(config, *result) error{
	"sim-paper":  runSimPaper,
	"route-cold": runRouteCold,
	"decide-hot": runDecideHot,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: sim-paper, route-cold or decide-hot")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.Trace = trace == 1

	run, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n",
			cfg.Workload, cfg.Seconds, trace)
		os.Exit(2)
	}
	res := newResult()
	if err := run(cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		os.Exit(1)
	}
	res.Metrics = res.e2e
	if cfg.Trace {
		res.Metrics = res.layer
	}
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, p := range res.problems {
		fmt.Println("ORACLE FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
