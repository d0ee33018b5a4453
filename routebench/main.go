// Command routebench is the router's benchmark: three seeded workloads
// (route-cold, route-eco, serve-solve) that time calls into the public
// costdist API and the HTTP service, check every output before a
// number counts, and print every metric by name. README.md maps the
// layers to the metrics and workloads.
//
//	bash routebench/run.sh --workload route-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones from a separate run
// with the telemetry recorder attached. Any failed output check or
// determinism mismatch exits 1.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// config is what every workload receives: the seed that generates its
// inputs, the measuring window and whether this is the traced run.
// procs is nproc, which sizes GOMAXPROCS, router threads, service
// workers and client count alike.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	procs   int
}

// spec describes one metric. End-to-end metrics are reported by every
// untraced run; per-layer metrics by every traced run, as 0 on a
// workload that does not run the layer.
type spec struct {
	name, unit, better string
	endToEnd           bool
}

var specs = []spec{
	{"route_s", "s", "lower", true},
	{"objective", "1", "lower", true},
	{"solve_rps", "1/s", "higher", true},
	{"solve_p50_ms", "ms", "lower", true},
	{"solve_p99_ms", "ms", "lower", true},
	{"setup_s", "s", "lower", true},
	{"peak_rss_mb", "MB", "lower", true},

	{"router.solve_s", "s", "lower", false},
	{"router.solve_ms_mean", "ms", "lower", false},
	{"router.dirty_s", "s", "lower", false},
	{"router.price_s", "s", "lower", false},
	{"router.replay_s", "s", "lower", false},
	{"router.repair_s", "s", "lower", false},
	{"router.nets_solved", "count", "lower", false},
	{"router.nets_skipped", "count", "higher", false},
	{"router.nets_repaired", "count", "higher", false},
	{"router.repair_escalated", "count", "lower", false},
	{"router.repair_yield", "1", "higher", false},
	{"router.overflow", "1", "lower", false},
	{"router.tns_ps", "ps", "higher", false},
	{"reembed.attempt_ms_mean", "ms", "lower", false},
	{"reembed.attempt_to_solve", "1", "lower", false},
	{"core.solve_us_p50", "us", "lower", false},
	{"core.solve_us_p99", "us", "lower", false},
	{"core.solves_per_s", "1/s", "higher", false},
	{"core.solve_us_p50.s1-2", "us", "lower", false},
	{"core.solve_us_p50.s3-5", "us", "lower", false},
	{"core.solve_us_p50.s6-14", "us", "lower", false},
	{"core.solve_us_p50.s15-29", "us", "lower", false},
	{"core.solve_us_p50.s30-up", "us", "lower", false},
	{"core.allocs_per_solve", "count", "lower", false},
	{"core.bytes_per_solve", "B", "lower", false},
	{"io.checkpoint_bytes", "B", "lower", false},
	{"io.checkpoint_encode_s", "s", "lower", false},
	{"io.checkpoint_decode_s", "s", "lower", false},
	{"service.hit_rate", "1", "higher", false},
	{"service.hit_ms_p50", "ms", "lower", false},
	{"service.miss_ms_p50", "ms", "lower", false},
	{"service.miss_ms_p99", "ms", "lower", false},
	{"service.rejected", "count", "lower", false},
	{"runtime.alloc_mb", "MB/op", "lower", false},
	{"runtime.num_gc", "1/op", "lower", false},
	{"runtime.gc_pause_ms", "ms/op", "lower", false},
	{"trace.overhead_frac", "1", "lower", false},
}

// result is what a workload reports. Failures are counted against
// attempted operations; the first few are also described in problems.
type result struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	notes             map[string]string
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// setN records a value with the sample count it was taken over.
func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.notes[name] = fmt.Sprintf("n=%d", n)
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"route-cold":  runRouteCold,
	"route-eco":   runRouteECO,
	"serve-solve": runServeSolve,
}

func main() {
	workload := flag.String("workload", "", "route-cold, route-eco or serve-solve")
	seed := flag.Uint64("seed", 1, "seed that generates the workload's inputs")
	secs := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "routebench: need --workload route-cold|route-eco|serve-solve, --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *secs, trace: *trace == 1, procs: runtime.NumCPU()}
	runtime.GOMAXPROCS(cfg.procs)
	printHeader(*workload, cfg)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "routebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if _, ok := res.values["peak_rss_mb"]; !ok {
		res.set("peak_rss_mb", peakRSSMB())
	}
	os.Exit(report(res, cfg.trace))
}

// report prints the metric table and the result line, and returns the
// exit code: 1 when any output check failed.
func report(res *result, trace bool) int {
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	type valueJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]valueJSON{}
	for _, s := range specs {
		if s.endToEnd == trace {
			continue
		}
		v, ok := res.values[s.name]
		if !ok && s.endToEnd {
			res.fail("workload did not measure %s", s.name)
		}
		fmt.Fprintf(out, "%-26s %18.6f %-6s %-6s %s\n", s.name, v, s.unit, s.better, res.notes[s.name])
		metrics[s.name] = valueJSON{v, s.unit}
	}
	fmt.Fprintf(out, "%-26s %18.6f %-6s %-6s failed=%d attempted=%d\n", "fail_frac",
		float64(res.failed)/float64(max(res.attempted, 1)), "1", "lower", res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "routebench: FAILED %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueJSON `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, max(res.attempted, 1), res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "routebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

// printHeader prints the shared result header: toolchain, machine,
// parallelism, seed, date, commit and the exact command.
func printHeader(workload string, cfg config) {
	cmd := os.Getenv("ROUTEBENCH_COMMAND")
	if cmd == "" {
		cmd = strings.Join(os.Args, " ")
	}
	h := map[string]any{
		"workload":   workload,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    cfg.procs,
		"clients":    cfg.procs,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"date":       time.Now().UTC().Format(time.RFC3339),
		"commit":     commit(),
		"command":    cmd,
	}
	line, _ := json.Marshal(h) // strings, numbers and bools always encode
	fmt.Printf("header %s\n", line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the git revision run.sh found for the checkout, or
// "unknown" outside a git checkout.
func commit() string {
	if c := os.Getenv("ROUTEBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}
