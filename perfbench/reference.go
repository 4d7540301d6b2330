package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"

	"vmopt/internal/cpu"
	"vmopt/internal/harness"
	"vmopt/internal/metrics"
	"vmopt/internal/workload"
)

const referenceSchema = "perfbench-reference/v1"

// regenCommand is recorded in the reference file.
const regenCommand = "bash perfbench/run.sh -regen-reference"

// refCell is the direct-simulation counters of one cell.
type refCell struct {
	Workload string           `json:"workload"`
	Variant  string           `json:"variant"`
	Machine  string           `json:"machine"`
	ScaleDiv int              `json:"scalediv"`
	Scale    int              `json:"scale"`
	Counters metrics.Counters `json:"counters"`
}

type referenceFile struct {
	Schema     string    `json:"schema"`
	Regenerate string    `json:"regenerate"`
	Cells      []refCell `json:"cells"`
}

// reference is the correctness oracle: every cell any workload touches.
type reference struct {
	byKey map[string]metrics.Counters
}

func cellKey(w, v, m string, div int) string { return fmt.Sprintf("%s|%s|%s|%d", w, v, m, div) }

func loadReference(path string) (*reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var f referenceFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", path, err)
	}
	if f.Schema != referenceSchema {
		return nil, fmt.Errorf("reference %s: schema %q, want %q", path, f.Schema, referenceSchema)
	}
	r := &reference{byKey: make(map[string]metrics.Counters, len(f.Cells))}
	for _, c := range f.Cells {
		r.byKey[cellKey(c.Workload, c.Variant, c.Machine, c.ScaleDiv)] = c.Counters
	}
	return r, nil
}

// check compares one produced cell with the reference field by field.
func (r *reference) check(w, v, m string, div int, got metrics.Counters) error {
	want, ok := r.byKey[cellKey(w, v, m, div)]
	if !ok {
		return fmt.Errorf("%s/%s on %s at scalediv %d: no reference counters", w, v, m, div)
	}
	if got == want {
		return nil
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	t := gv.Type()
	for i := 0; i < t.NumField(); i++ {
		if g, x := gv.Field(i).Interface(), wv.Field(i).Interface(); g != x {
			return fmt.Errorf("%s/%s on %s at scalediv %d: %s = %v, reference %v", w, v, m, div, t.Field(i).Name, g, x)
		}
	}
	return nil
}

// serveVariants are the variants of the served cell space, defined
// for both guests: the dispatch baseline, the plain threaded
// interpreter, one static, one dynamic and the across-blocks scheme.
var serveVariants = []string{"switch", "plain", "static super", "dynamic super", "across bb"}

// serveWorkloads are the served workloads: all but compress and mtrt,
// whose scale is already at its floor of 2 at any scalediv above 5, so
// that their ~3M-event traces and ~100 MB arenas would set every
// tail on their own. The ledger pass still measures compress.
func serveWorkloads() []*workload.Workload {
	var out []*workload.Workload
	for _, w := range append(workload.Forth(), workload.Java()...) {
		if w.Name != "compress" && w.Name != "mtrt" {
			out = append(out, w)
		}
	}
	return out
}

// servePairs is the served (workload, variant) space: every served
// workload under each of serveVariants, in a fixed order.
func servePairs() []harness.RunSpec {
	var out []harness.RunSpec
	for _, w := range serveWorkloads() {
		for _, name := range serveVariants {
			v, err := harness.VariantByName(w, name)
			if err != nil {
				panic(err) // serveVariants names variants both guests define
			}
			out = append(out, harness.RunSpec{W: w, V: v})
		}
	}
	return out
}

// serveCells expands pairs onto every predefined machine.
func serveCells() []harness.RunSpec {
	var out []harness.RunSpec
	for _, p := range servePairs() {
		for _, m := range cpu.Machines() {
			out = append(out, harness.RunSpec{W: p.W, V: p.V, M: m})
		}
	}
	return out
}

// regenReference recomputes every cell by direct simulation: the grid
// pass at the grid scalediv, and every served cell at the serve and
// record scaledivs.
func regenReference(ctx context.Context, o options) error {
	cells := map[string]refCell{}
	s, err := gridSetup(ctx, o.gridDiv())
	if err != nil {
		return err
	}
	for _, ex := range experiments() {
		if err := ex.fn(s); err != nil {
			return fmt.Errorf("grid %s: %w", ex.name, err)
		}
	}
	for _, r := range s.Snapshot() {
		cells[cellKey(r.Workload, r.Variant, r.Machine, o.gridDiv())] = refCell{
			r.Workload, r.Variant, r.Machine, o.gridDiv(), r.Scale, r.Counters}
	}
	for _, div := range []int{o.serveDiv(), o.recordDiv()} {
		s := harness.NewSuite()
		s.ScaleDiv = div
		s.Jobs = runtime.NumCPU()
		s.Ctx = ctx
		specs := serveCells()
		cs, err := s.RunSpecs(specs)
		if err != nil {
			return fmt.Errorf("serve cells at scalediv %d: %w", div, err)
		}
		for i, sp := range specs {
			cells[cellKey(sp.W.Name, sp.V.Name, sp.M.Name, div)] = refCell{
				sp.W.Name, sp.V.Name, sp.M.Name, div, harness.ScaleAt(sp.W, div), cs[i]}
		}
	}
	keys := sortedKeys(cells)
	f, err := os.Create(o.reference)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"schema\": %q,\n\"regenerate\": %q,\n\"cells\": [\n", referenceSchema, regenCommand)
	for i, k := range keys {
		b, err := json.Marshal(cells[k])
		if err != nil {
			f.Close()
			return err
		}
		sep := ",\n"
		if i == len(keys)-1 {
			sep = "\n"
		}
		w.Write(b)
		w.WriteString(sep)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
