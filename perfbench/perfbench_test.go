package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// tinyDiv is the smoke tests' scalediv: every workload at (or near)
// its smallest scale.
const tinyDiv = 400

func TestMain(m *testing.M) {
	code := m.Run()
	if tinyRef.path != "" {
		os.RemoveAll(filepath.Dir(tinyRef.path))
	}
	os.Exit(code)
}

// tinyReference regenerates a reference at tinyDiv once per test
// binary.
var tinyRef struct {
	path string
	err  error
}

func tinyReference(t *testing.T) string {
	t.Helper()
	if tinyRef.path == "" && tinyRef.err == nil {
		dir, err := os.MkdirTemp("", "perfbench-ref")
		if err != nil {
			t.Fatal(err)
		}
		tinyRef.path = filepath.Join(dir, "reference.json")
		var stderr bytes.Buffer
		if code := run(context.Background(), []string{"-regen-reference", "-scalediv", strconv.Itoa(tinyDiv), "-reference", tinyRef.path}, &bytes.Buffer{}, &stderr); code != 0 {
			tinyRef.err = &exitError{code, stderr.String()}
		}
	}
	if tinyRef.err != nil {
		t.Fatal(tinyRef.err)
	}
	return tinyRef.path
}

type exitError struct {
	code   int
	stderr string
}

func (e *exitError) Error() string { return "exit " + strconv.Itoa(e.code) + ": " + e.stderr }

// runTiny runs one workload at tinyDiv and returns the exit code and
// the result line.
func runTiny(t *testing.T, ref, workload string, trace int, extra ...string) (int, string, string) {
	t.Helper()
	args := append([]string{"-workload", workload, "-seed", "7", "-seconds", "2", "-trace", strconv.Itoa(trace),
		"-scalediv", strconv.Itoa(tinyDiv), "-reference", ref, "-workdir", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	return code, lines[len(lines)-1], stderr.String()
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

type resultLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// checkMetrics asserts the result line carries exactly the declared
// metrics, each with its declared unit.
func checkMetrics(t *testing.T, line string, want []struct{ Name, Unit string }) resultLine {
	t.Helper()
	var r resultLine
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	return r
}

// TestDeclaredMetricsMatchCode keeps BENCHMARK.json and the code's
// metric tables in step.
func TestDeclaredMetricsMatchCode(t *testing.T) {
	f := readBenchmark(t)
	for _, c := range []struct {
		name     string
		declared []struct{ Name, Unit string }
		code     []metricDef
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(c.declared) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", c.name, len(c.declared), len(c.code))
			continue
		}
		for i, m := range c.declared {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", c.name, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, code)
	}
}

// TestSmoke runs every workload at a tiny scale and checks that every
// end-to-end metric is emitted with its unit, and that a traced run
// emits every per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	ref := tinyReference(t)
	f := readBenchmark(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, line, stderr := runTiny(t, ref, w.name, 0)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			r := checkMetrics(t, line, f.EndToEnd)
			for _, m := range []string{"setup_s", "op_p50_ms", "capacity_rps", "peak_rss_mb"} {
				if r.Metrics[m].Value <= 0 {
					t.Errorf("%s = %g, want > 0", m, r.Metrics[m].Value)
				}
			}
		})
	}
	for _, c := range []struct {
		workload string
		positive []string
	}{
		{"serve-skewed", []string{"serve.lru_hit_ratio", "disptrace.trace_records", "diff_p50_ms", "cpu.apply.ns_per_event.btb", "core.run.ns_per_vminst"}},
		{"grid-direct", []string{"grid_s", "harness.grid.self_s", "harness.train.s"}},
	} {
		t.Run(c.workload+" traced", func(t *testing.T) {
			code, line, stderr := runTiny(t, ref, c.workload, 1)
			if code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr)
			}
			r := checkMetrics(t, line, f.PerLayer)
			for _, m := range c.positive {
				if r.Metrics[m].Value <= 0 {
					t.Errorf("%s = %g, want > 0", m, r.Metrics[m].Value)
				}
			}
			var rep struct {
				Closure  closure
				Overhead map[string]float64 `json:"overhead_figures"`
			}
			if err := json.Unmarshal([]byte(stderr[strings.Index(stderr, "{"):]), &rep); err != nil {
				t.Fatalf("report: %v", err)
			}
			if c := rep.Closure; c.FigureMs <= 0 || c.ClosureError > 1e-9 || c.ClosureError < -1e-9 {
				t.Errorf("closure: figure %g ms, explained %g + unexplained %g (error %g)", c.FigureMs, c.ExplainedMs, c.UnexplainedMs, c.ClosureError)
			}
			if rep.Overhead["traced"] <= 0 || rep.Overhead["untraced"] <= 0 {
				t.Errorf("overhead figures %v, want both halves measured", rep.Overhead)
			}
		})
	}
}

// TestPerturbedReferenceFails perturbs every served cell of the
// reference: the command must report the mismatch and exit non-zero.
func TestPerturbedReferenceFails(t *testing.T) {
	if testing.Short() {
		t.Skip("needs the tiny reference")
	}
	b, err := os.ReadFile(tinyReference(t))
	if err != nil {
		t.Fatal(err)
	}
	var f referenceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	for i := range f.Cells {
		f.Cells[i].Counters.Mispredicted++
	}
	path := filepath.Join(t.TempDir(), "perturbed.json")
	b, err = json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	code, line, stderr := runTiny(t, path, "serve-replay", 0)
	if code == 0 {
		t.Fatalf("perturbed reference passed: %s", line)
	}
	var r resultLine
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if r.Correct || r.Failed != r.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want every operation failed", r.Correct, r.Failed, r.Attempted)
	}
	if !strings.Contains(stderr, "Mispredicted") {
		t.Errorf("report does not name the mismatched field:\n%s", stderr)
	}
}

// TestGuardRefusesTooManyConnections checks the host guard.
func TestGuardRefusesTooManyConnections(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-workload", "serve-replay", "-conns", strconv.Itoa(runtime.NumCPU() + 1)}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want a refusal without a result", code, stdout.String())
	}
}

func TestSummarizeTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	d := summarize(xs)
	if d.N != 100 || d.P50 != 50.5 || d.Tail != 90 || d.TailPct != 90 {
		t.Fatalf("summarize = %+v, want n 100, p50 50.5, tail 90 at p90", d)
	}
}

func TestLedgerSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) int64 { return int64(ms) * 1e6 }
	add := func(name string, parent int, s, e int) int {
		id := len(tr.spans)
		tr.spans = append(tr.spans, spanRec{ID: id, Name: name, Start: at(s), End: at(e), Parent: parent})
		return id
	}
	root := add("client.run", -1, 0, 100)
	add("a", root, 10, 40)
	b := add("b", root, 40, 70)
	add("c", b, 50, 60)
	add("d", b, 55, 68) // overlaps c
	c := tr.ledger(nil)
	// Root self 100-60 (a and b cover [10,70]); b self 30-18 (c and d
	// cover [50,68]); a 30, c 10, d 13.
	want := map[string]float64{"a": 30, "b": 12, "c": 10, "d": 13}
	for _, r := range c.Rows {
		if r.SelfMs != want[r.Name] {
			t.Errorf("%s self %g ms, want %g", r.Name, r.SelfMs, want[r.Name])
		}
	}
	if c.FigureMs != 100 || c.UnexplainedMs != 40 || len(c.Rows) != len(want) {
		t.Fatalf("ledger = %+v, want figure 100 and unexplained 40", c)
	}
}
