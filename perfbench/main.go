// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints a
// human-readable report whose last line is one JSON result:
//
//	bash perfbench/run.sh --workload paper-jbb --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	paper-jbb    pseudojbb with the paper's assertions, closed loop
//	paper-db-w2  _209_db, assertions off, two mark workers, closed loop
//	svc-http     gcassertd on a loopback listener, two tenants, open loop
//
// With --trace 0 the JSON carries the end-to-end metrics. With --trace 1 the
// run records spans in memory, writes them to --spans at exit, and the JSON
// carries the per-layer metrics, each layer's self time and the tracing
// overhead. config.json holds the seeds, the service rate ladder and its
// latency limit, the generator lateness limit, and the layer each per-layer
// metric measures. The process exits 1 when an output check fails.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

//go:embed config.json
var configJSON []byte

// config is the settings config.json records: the seeds and the service
// rate ladder with its limits.
type config struct {
	DefaultSeed uint64 `json:"default_seed"`
	HoldoutSeed uint64 `json:"holdout_seed"`
	Svc         svcConfig
}

// setupRuns is how many times a run sets the system up; setup_s is the
// median. One set-up takes milliseconds.
const setupRuns = 21

var cfg = mustConfig()

func mustConfig() config {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		panic(fmt.Sprintf("perfbench: embedded config.json: %v", err))
	}
	return c
}

// params are one run's command-line settings.
type params struct {
	seed      uint64
	dur       time.Duration
	traced    bool
	spansPath string
}

var workloads = map[string]func(params) (*report, error){
	"paper-jbb":   func(p params) (*report, error) { return runPaper(paperJBB, p) },
	"paper-db-w2": func(p params) (*report, error) { return runPaper(paperDB, p) },
	"svc-http":    runSvc,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-jbb, paper-db-w2 or svc-http")
	seed := fs.Uint64("seed", cfg.DefaultSeed, "input seed")
	seconds := fs.Float64("seconds", 35, "measuring time in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	spans := fs.String("spans", "", "traced run's span file (default .bench_build/perfbench/spans-<workload>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload paper-jbb|paper-db-w2|svc-http, --seconds > 0, --trace 0|1 (got workload %q)\n", *name)
		return 2
	}
	p := params{
		seed:      *seed,
		dur:       time.Duration(*seconds * float64(time.Second)),
		traced:    *traceFlag == 1,
		spansPath: *spans,
	}
	if p.spansPath == "" {
		p.spansPath = fmt.Sprintf(".bench_build/perfbench/spans-%s.jsonl", *name)
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d\n", *name, p.seed, *seconds, *traceFlag)
	rep, err := runFn(p)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout, p.traced); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// mixSeed spreads a small command-line seed over 64 bits (splitmix64), so
// neighbouring seeds give unrelated inputs and no seed maps to zero.
func mixSeed(s uint64) uint64 {
	s += 0x9e3779b97f4a7c15
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	s ^= s >> 31
	if s == 0 {
		s = 1
	}
	return s
}
