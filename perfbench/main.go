// Command perfbench drives a live Minos deployment from outside and prints
// the repository's end-to-end metrics (or, with -trace 1, its per-layer
// metrics). Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload etc --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*report, error){
	"etc":        runEtc,
	"udp-small":  runUDPSmall,
	"cluster-rw": runClusterRW,
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks the dataset and the rates for the smoke test; 1 is
	// the benchmark proper.
	scale float64
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: etc, udp-small or cluster-rw")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.scale = 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload etc|udp-small|cluster-rw, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := execute(cfg, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct {
		os.Exit(1)
	}
}

// execute stamps the environment around one workload run.
func execute(cfg config, run func(config) (*report, error)) (*report, error) {
	env := probeHost()
	steal := readStat()
	rep, err := run(cfg)
	if err != nil {
		return nil, err
	}
	env.stealPct = steal.pct()
	rep.env = env
	rep.env.seed = cfg.seed
	rep.env.workload = cfg.workload
	if cfg.trace {
		rep.layer("host.steal_pct", "%", env.stealPct)
		rep.layer("host.sleep_quantum_us", "us", env.sleepQuantumUs)
	}
	return rep, nil
}

// metric is one named measurement. samples, when nonzero, is the count
// behind a percentile and is printed beside it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples uint64
}

// report collects what a run prints.
type report struct {
	correct   bool
	attempted uint64
	failed    uint64
	// endToEnd is printed with --trace 0, layers with --trace 1; notes
	// are human-readable lines printed either way.
	endToEnd []metric
	layers   []metric
	notes    []string
	trace    bool
	env      hostInfo
}

func (r *report) e2e(name, unit string, v float64, samples uint64) {
	r.endToEnd = append(r.endToEnd, metric{name, unit, v, samples})
}

func (r *report) layer(name, unit string, v float64) { r.layerN(name, unit, v, 0) }

// layerN adds a per-layer percentile with its sample count.
func (r *report) layerN(name, unit string, v float64, samples uint64) {
	r.layers = append(r.layers, metric{name, unit, v, samples})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failedFrac is failures over attempts, both counted across the run.
func (r *report) failedFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

func (r *report) print(w io.Writer) {
	e := r.env
	fmt.Fprintf(w, "env workload=%s seed=%d nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s host.steal_pct=%.3f host.sleep_quantum_us=%.1f\n",
		e.workload, e.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), e.cpuModel, runtime.Version(), e.commit, e.stealPct, e.sleepQuantumUs)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "failed_frac %.6g (failed %d of %d attempted)\n", r.failedFrac(), r.failed, r.attempted)
	shown := r.endToEnd
	if r.trace {
		shown = r.layers
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted uint64                    `json:"attempted"`
		Failed    uint64                    `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]map[string]any{}}
	for _, m := range shown {
		if m.samples > 0 {
			fmt.Fprintf(w, "%-28s %14.4f %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
		} else {
			fmt.Fprintf(w, "%-28s %14.4f %s\n", m.name, m.value, m.unit)
		}
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only plain numbers and strings are marshalled
	}
	fmt.Fprintln(w, string(b))
}

// seconds converts a float second count to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// outDir is where a run writes its span files and WAL directories: the
// benchmark's build directory inside the checkout.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}
