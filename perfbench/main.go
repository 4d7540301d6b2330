// Command perfbench is vmopt's end-to-end benchmark. It runs one named
// workload from a seed for a fixed time, checks every simulated counter
// against the direct-simulation reference in reference.json, and prints
// one JSON result line:
//
//	perfbench -workload serve-replay -seed 3 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer ledger: spans recorded around every call the
// benchmark makes into a layer, Server-Timing stages, /metrics deltas
// and a ledger pass over a fixed trace set. The detailed report (host
// block, sample counts, validity, closure) goes to standard error.
//
// Workloads: grid-direct (the `vmbench -exp all` experiment set by
// direct simulation), serve-replay (distinct cells served from the
// trace cache) and serve-skewed (zipfian LRU hits beside trace
// recordings and diffs). See README.md for the metric definitions.
//
// -regen-reference rewrites the reference counters by direct
// simulation of every cell the workloads touch.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Fixed workload parameters. BENCHMARK.json and README.md quote them.
const (
	// gridScaleDiv is the reduced scale of grid-direct's experiment set.
	gridScaleDiv = 10
	// serveScaleDiv is the server's default scalediv: the warm cell
	// space both serve workloads draw from. serve-skewed's record runs
	// use twice it, a scalediv set-up never records, so each of them
	// records a new trace.
	serveScaleDiv = 20

	// replayRate and skewedRate are the open-loop Poisson arrival
	// rates, requests per second.
	replayRate = 25.0
	skewedRate = 80.0

	// runTailLimitMs is the latency limit on the /v1/run tail.
	runTailLimitMs = 500.0
	// lateLimitMs marks an open-loop run invalid when the generator's
	// p99 lateness exceeds it: lateness alone would then eat half the
	// latency limit, so the schedule was not kept.
	lateLimitMs = runTailLimitMs / 2

	// openShare is the share of -seconds spent in the open-loop phase;
	// the rest is the closed-loop capacity phase.
	openShare = 0.6

	// setups is how many times a run sets its workload up; setup_s is
	// their median.
	setups = 5
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	reference string
	workdir   string
	conns     int
	regen     bool
	// scale overrides every scalediv (smoke tests); 0 keeps the fixed
	// values above.
	scale int
}

func (o options) gridDiv() int   { return o.pick(gridScaleDiv) }
func (o options) serveDiv() int  { return o.pick(serveScaleDiv) }
func (o options) recordDiv() int { return 2 * o.serveDiv() }

func (o options) pick(d int) int {
	if o.scale > 0 {
		return o.scale
	}
	return d
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	// mismatches lists the first few wrong counters or failed
	// operations, for the report.
	mismatches []string
	// crossCheck is non-empty when the server's own request counts
	// disagree with the client's.
	crossCheck string
	// figure is the end-to-end figure tracing could slow: the median
	// pass time (grid) or the median open-loop latency (serve).
	figure float64
	e2e    map[string]float64
	layers map[string]float64
	report map[string]any
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.crossCheck == "" }

// merge adds another run's checked operations and failures to r.
func (r *result) merge(other *result) {
	r.attempted += other.attempted
	r.failed += other.failed
	r.mismatches = append(r.mismatches, other.mismatches...)
	if other.crossCheck != "" {
		r.crossCheck = strings.TrimPrefix(r.crossCheck+"; "+other.crossCheck, "; ")
	}
}

type workloadDef struct {
	name string
	run  func(ctx context.Context, o options, ref *reference, tr *tracer) (*result, error)
}

var workloads = []workloadDef{
	{"grid-direct", runGrid},
	{"serve-replay", runServeReplay},
	{"serve-skewed", runServeSkewed},
}

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: grid-direct, serve-replay or serve-skewed")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer ledger")
	fs.StringVar(&o.reference, "reference", filepath.Join("perfbench", "reference.json"), "reference counters file")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "perfbench", "work"), "scratch directory for trace caches and span dumps")
	fs.IntVar(&o.conns, "conns", runtime.NumCPU(), "client connections (at most nproc)")
	fs.BoolVar(&o.regen, "regen-reference", false, "rewrite the reference counters by direct simulation and exit")
	fs.IntVar(&o.scale, "scalediv", 0, "override every scalediv (smoke tests only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d: want 0 or 1\n", trace)
		return 2
	}
	if err := guard(o); err != nil {
		fmt.Fprintln(stderr, "perfbench: refused:", err)
		return 2
	}
	if o.regen {
		if err := regenReference(ctx, o); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	ref, err := loadReference(o.reference)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var tr *tracer
	var base *result
	if o.trace {
		// A traced run measures the workload twice on the same seed,
		// each half of -seconds: untraced, then traced. The traced
		// figure against the untraced one is the tracing overhead.
		o.seconds /= 2
		if base, err = wl.run(ctx, o, ref, nil); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (untraced half): %v\n", o.workload, err)
			return 1
		}
		tr = newTracer()
	}
	res, err := wl.run(ctx, o, ref, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res.e2e["peak_rss_mb"] = peakRSSMB()
	if o.trace {
		res.merge(base)
		res.layers["trace.overhead_ratio"] = ratio(res.figure, base.figure) - 1
		res.report["overhead_figures"] = map[string]float64{"traced": res.figure, "untraced": base.figure}
		res.layers["error_ratio"] = ratio(float64(res.failed), float64(res.attempted))
		ledgerRows, err := runLedger(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: ledger: %v\n", err)
			return 1
		}
		for k, v := range ledgerRows {
			res.layers[k] = v
		}
		path := filepath.Join(o.workdir, "spans-"+o.workload+".json")
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		res.report["spans_file"] = path
	}
	writeReport(stderr, o, res)
	metrics := res.e2e
	names := endToEnd
	if o.trace {
		metrics, names = res.layers, perLayer
	}
	if err := printResult(stdout, res, metrics, names); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// guard refuses runs whose figures would not be comparable: a
// race-instrumented binary, or more client connections than CPUs.
func guard(o options) error {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return errors.New("binary built with -race; build without it")
			}
		}
	}
	if n := runtime.NumCPU(); o.conns < 1 || o.conns > n {
		return fmt.Errorf("-conns %d outside 1..nproc (%d)", o.conns, n)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %g must be positive", o.seconds)
	}
	return nil
}

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a -trace 0 run reports, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"peak_rss_mb", "MB"},
}

// printResult writes the final result line: exactly the named metrics,
// each with its unit. A metric a workload does not exercise reads 0.
func printResult(w io.Writer, res *result, values map[string]float64, names []metricDef) error {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]mv{}}
	for _, m := range names {
		out.Metrics[m.name] = mv{values[m.name], m.unit}
	}
	for k := range values {
		if !hasMetric(names, k) {
			return fmt.Errorf("internal: metric %q is not declared", k)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func hasMetric(names []metricDef, name string) bool {
	for _, m := range names {
		if m.name == name {
			return true
		}
	}
	return false
}

// writeReport prints the detailed, human-auditable report to w.
func writeReport(w io.Writer, o options, res *result) {
	rep := map[string]any{
		"workload":  o.workload,
		"seed":      o.seed,
		"seconds":   o.seconds,
		"trace":     o.trace,
		"host":      hostBlock(),
		"attempted": res.attempted,
		"failed":    res.failed,
		"error_ratio": ratio(float64(res.failed),
			float64(res.attempted)),
		"end_to_end": res.e2e,
	}
	if o.trace {
		rep["per_layer"] = res.layers
	}
	if len(res.mismatches) > 0 {
		rep["failures"] = res.mismatches
	}
	if res.crossCheck != "" {
		rep["cross_check"] = res.crossCheck
	}
	for k, v := range res.report {
		rep[k] = v
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(w, "perfbench: report:", err)
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

// hostBlock describes the machine and build the figures come from.
func hostBlock() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS,
		"arch":       runtime.GOARCH,
		"cpu_model":  cpuModel(),
		"commit":     commit(),
	}
	return h
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// since reports seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
