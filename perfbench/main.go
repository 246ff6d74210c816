// Command perfbench is the repository's end-to-end benchmark. It drives the
// public APIs of engine, schedule, pipeline and transport on four
// workloads, checks their outputs, and prints every metric by name and
// unit, ending with one JSON line:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads:
//
//   - lamb-1f1b: BERT (DModel 64, DFF 256, 4 heads, 2 blocks, SeqLen 32,
//     vocab 1024) on 1F1B, 2 stages x 4 micro-batches, batch 8, W=1, LAMB,
//     K-FAC off — the first-order baseline.
//   - pipefisher-1f1b: the same model, batches and schedule with K-FAC
//     (RefreshSteps 2) — the paper's mechanism.
//   - pipefisher-ring2: bert.TinyConfig on two engines in one process joined
//     by a Unix-socket ring (one replica each, global W=2), 1F1B with K-FAC.
//   - plan-bert-large: the auto-tuner's decision (schedule.RankCandidates
//     over 32 candidates) at BERT-Large 8x3 scale on perturbed P100 costs.
//
// One process drives the load, a closed loop: each round (or decision)
// starts when the previous one returned. GOMAXPROCS is the CPU count (1 for
// the single-threaded planner, see workloadProcs) and the engines' kernel
// worker budget is 0, which means that whole budget.
//
// End-to-end metrics (--trace 0) are the same six names on every workload,
// the operation being a training step or a planning decision, timed in wall
// time: throughput_per_s, op_ms.p50, op_ms.p90, quality.final, peak_heap_mb
// and setup_s. README.md defines
// each per workload. --trace 1 runs an untraced half and a traced
// half on the same seed and prints the per-layer metrics (timeline
// breakdowns, collective counters, runtime/metrics deltas and a CPU profile
// summarised per package) plus the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
)

// options are one run's settings. The command line sets seed, seconds and
// trace; the remaining fields shrink a run for the package's tests.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// lossSteps is the fixed training length quality.final is taken at
	// (the mean loss of its last lossWindow steps); a run trains at least
	// this many steps whatever --seconds says.
	lossSteps int
	// minSamples is the least number of timed operations a run makes.
	minSamples int
	// setupReps is how many times set-up is repeated, spread over
	// setupSpan; setup_s is their median.
	setupReps int
	setupSpan time.Duration
	// refSteps is the length of the reference run the output check compares.
	refSteps int
	// refSeed seeds the reference run (normally seed; tests perturb it to
	// show the check fails).
	refSeed uint64
	// planDecisions is the fixed number of planning decisions
	// quality.final is taken over.
	planDecisions int
}

func defaultOptions(seed uint64, seconds float64, trace bool) options {
	return options{
		seed: seed, seconds: seconds, trace: trace,
		lossSteps: 100, minSamples: 100, setupReps: 40, setupSpan: 2 * time.Second, refSteps: 4, refSeed: seed,
		planDecisions: 40,
	}
}

// lossWindow is the number of final steps quality.final averages.
const lossWindow = 20

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	metrics           []metric // the JSON metrics: end-to-end or per-layer
	lines             []string // human-readable lines printed before the JSON
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts one output check, recording why it failed.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.printf("check failed: %v", err)
	}
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(options) (*report, error){
	"lamb-1f1b":        func(o options) (*report, error) { return runTrain(lamb1F1B, o) },
	"pipefisher-1f1b":  func(o options) (*report, error) { return runTrain(pipeFisher1F1B, o) },
	"pipefisher-ring2": func(o options) (*report, error) { return runTrain(pipeFisherRing2, o) },
	"plan-bert-large":  runPlan,
}

// workloadProcs overrides GOMAXPROCS (otherwise the CPU count) for a
// workload. The planner is single-threaded: on a small shared host a second
// P gives it only a concurrent garbage collector whose coordination with the
// planner's thread stalls whenever the host deschedules either CPU. Timed
// decision by decision, interleaved over 270 s on 2 shared vCPUs, the 20-s
// medians of decision latency spread (IQR/median) 0.27 at GOMAXPROCS 2 and
// 0.09 at 1. The price: a planner made parallel shows no gain here until
// this entry goes.
var workloadProcs = map[string]int{"plan-bert-large": 1}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	traceFlag := fs.Int("trace", 0, "1 = per-layer traced run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[*name]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	procs := runtime.NumCPU()
	if p, ok := workloadProcs[*name]; ok {
		procs = p
	}
	runtime.GOMAXPROCS(procs)
	fmt.Fprintln(stdout, hostFingerprint())
	rep, err := runW(defaultOptions(*seed, *seconds, *traceFlag == 1))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := writeReport(stdout, *name, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostFingerprint names what the figures were measured on.
func hostFingerprint() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d kernel=%s go=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.ActiveKernel(), runtime.Version())
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// writeReport prints the human-readable lines, every metric with its unit,
// and the JSON result as the last line.
func writeReport(w io.Writer, name string, rep *report) error {
	out := jsonReport{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]jsonMetric, len(rep.metrics)),
	}
	for _, l := range rep.lines {
		fmt.Fprintf(w, "%s: %s\n", name, l)
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, m.name, m.value)
		}
		fmt.Fprintf(w, "%s: %-34s %16.6f %s\n", name, m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
