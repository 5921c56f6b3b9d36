// Command perfbench is the repository's end-to-end benchmark for the
// antennad orientation service. It serves
// service.NewServer(service.NewEngine(opts)).Handler() on a loopback
// listener inside its own process, with antennad's defaults, and drives
// it with one closed-loop client.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload orient-cold --seed 1 --seconds 25 --trace 0
//
// Workloads: orient-cold, orient-hot, instance-churn (see README.md).
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 it carries the per-layer
// metrics of the traced run instead. The process exits non-zero, with
// no result line, when it cannot run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name: orient-cold | orient-hot | instance-churn")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for the WAL and the span dump")
	commit := flag.String("commit", "unknown", "revision of the code under test, recorded with the host")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traced)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{
		workload: wl,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		workdir:  *workdir,
	}
	host := describeHost(*workload, *seed, *commit)
	fmt.Println("host:", host)

	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(cfg, host)
	} else {
		res, err = runMeasured(cfg)
	}
	if err != nil {
		fatal(err)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res.line())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// config is one invocation's settings.
type config struct {
	workload *workload
	seed     int64
	window   time.Duration
	workdir  string
}

// tempDir makes a fresh scratch directory under the work directory.
func (c config) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(c.workdir, prefix)
}

// spanPath is where the traced run writes its spans.
func (c config) spanPath() string {
	return filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.json", c.workload.name, c.seed))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run reports: the verdict of its correctness checks,
// its metrics, and human-readable notes (sample counts, host) printed
// before the result line.
type result struct {
	tally   tally
	metrics map[string]metric
	notes   []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// resultLine is the JSON object printed as the last line.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) line() resultLine {
	return resultLine{
		Correct:   r.tally.failed == 0 && r.tally.attempted > 0,
		Attempted: max(r.tally.attempted, 1),
		Failed:    r.tally.failed,
		Metrics:   r.metrics,
	}
}
