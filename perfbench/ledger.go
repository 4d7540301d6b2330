package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vmopt/internal/core"
	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/serve"
	"vmopt/internal/workload"
)

// ledgerSet is the fixed trace set of the per-event rows: both guests,
// gray and compress, each as switch, plain and dynamic super.
var ledgerSet = struct {
	workloads []func() *workload.Workload
	variants  []string
}{
	workloads: []func() *workload.Workload{workload.Gray, workload.Compress},
	variants:  []string{"switch", "plain", "dynamic super"},
}

// predictorRows are the Apply rows, one per predictor kind: the
// Celeron's BTB, the same BTB with two-bit counters, and the Pentium
// M's two-level predictor.
var predictorRows = []struct {
	name string
	m    cpu.Machine
}{
	{"btb", cpu.Celeron800},
	{"twobit", cpu.Celeron800.WithPredictor(cpu.PredictBTB2bc)},
	{"twolevel", cpu.PentiumM},
}

// acc sums one per-event row: time over the events it covered.
type acc struct{ ns, n float64 }

func (a *acc) add(d time.Duration, n uint64) { a.ns += float64(d); a.n += float64(n) }
func (a acc) per() float64                   { return ratio(a.ns, a.n) }

// timed runs f and returns its duration.
func timed(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}

// runLedger times each layer's public entry point over the fixed trace
// set at the serve scalediv and returns the per-event rows.
func runLedger(o options) (map[string]float64, error) {
	div := o.serveDiv()
	s := harness.NewSuite()
	s.ScaleDiv = div
	dir := filepath.Join(o.workdir, "ledger-cache")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache := disptrace.NewCache(dir)

	var process, plan, load []float64
	var profile, run, record, encode, diskBytes, decode, replay, replayEach, compile, arenaBytes, replayCompiled, diff acc
	apply := make([]acc, len(predictorRows))
	for _, mk := range ledgerSet.workloads {
		w := mk()
		scale := harness.ScaleAt(w, div)
		traces := map[string]*disptrace.Trace{}
		for _, vname := range ledgerSet.variants {
			v, err := harness.VariantByName(w, vname)
			if err != nil {
				return nil, err
			}
			var proc core.Process
			var leaders []int
			d, err := timed(func() (err error) { proc, leaders, err = w.NewProcess(scale); return })
			if err != nil {
				return nil, err
			}
			process = append(process, float64(d)/1e6)
			var p *core.Plan
			cfg := core.Config{Technique: v.Technique, ExtraLeaders: leaders}
			d, err = timed(func() (err error) { p, err = core.BuildPlan(proc.Code(), w.ISA(), cfg); return })
			if err != nil {
				return nil, err
			}
			plan = append(plan, float64(d)/1e6)

			fresh := func() (core.Process, error) { pr, _, err := w.NewProcess(scale); return pr, err }
			pr, err := fresh()
			if err != nil {
				return nil, err
			}
			var pd *core.ProfileData
			d, err = timed(func() (err error) { pd, err = core.Profile(pr, s.MaxSteps); return })
			if err != nil {
				return nil, err
			}
			profile.add(d, pd.Steps)

			pr, err = fresh()
			if err != nil {
				return nil, err
			}
			sim := cpu.NewSim(cpu.Celeron800)
			d, err = timed(func() error { _, err := core.Run(pr, p, sim, s.MaxSteps); return err })
			if err != nil {
				return nil, err
			}
			run.add(d, sim.C.VMInstructions)

			// Record: the same guest run with the trace writer as sink.
			pr, err = fresh()
			if err != nil {
				return nil, err
			}
			key := s.TraceKey(w, v)
			tw := disptrace.NewWriter(key.Header())
			sim = cpu.NewSim(cpu.Celeron800)
			sim.Sink = tw
			dRec, err := timed(func() error { _, err := core.Run(pr, p, sim, s.MaxSteps); return err })
			if err != nil {
				return nil, err
			}
			tr := tw.Trace()
			var enc []byte
			dEnc, _ := timed(func() error { enc = tr.Encode(); return nil })
			if _, _, err := cache.GetOrRecord(key, func() (*disptrace.Trace, error) { return tr, nil }); err != nil {
				return nil, err
			}

			var loaded *disptrace.Trace
			d, err = timed(func() (err error) { loaded, err = cache.Load(key); return })
			if err != nil {
				return nil, err
			}
			if loaded == nil {
				return nil, fmt.Errorf("%s/%s: trace not in cache after store", w.Name, vname)
			}
			load = append(load, float64(d)/1e6)

			// Decode as replay does: a cursor over the segments, one
			// reused batch buffer.
			var n uint64
			d, err = timed(func() error {
				c := disptrace.NewCursor(loaded)
				var buf []cpu.Op
				for {
					batch, ok := c.NextBatch(buf[:0])
					if !ok {
						return c.Err()
					}
					n += uint64(len(batch))
					buf = batch
				}
			})
			if err != nil {
				return nil, err
			}
			var ops []cpu.Op
			for _, seg := range loaded.Segs {
				if ops, err = seg.DecodeOps(ops); err != nil {
					return nil, err
				}
			}
			if uint64(len(ops)) != n {
				return nil, fmt.Errorf("%s/%s: cursor decoded %d events, segments %d", w.Name, vname, n, len(ops))
			}
			decode.add(d, n)
			record.add(dRec, n)
			encode.add(dEnc, n)
			diskBytes.add(time.Duration(len(enc)), n)
			for i, pk := range predictorRows {
				sim := cpu.NewSim(pk.m)
				d, _ := timed(func() error { sim.Apply(ops); return nil })
				apply[i].add(d, n)
			}
			ops = nil

			sim = cpu.NewSim(cpu.Celeron800)
			d, err = timed(func() error { return disptrace.Replay(loaded, sim, 1) })
			if err != nil {
				return nil, err
			}
			replay.add(d, n)
			sims := make([]*cpu.Sim, 0, len(cpu.Machines()))
			for _, m := range cpu.Machines() {
				sims = append(sims, cpu.NewSim(m))
			}
			d, err = timed(func() error { return disptrace.ReplayEach(loaded, sims) })
			if err != nil {
				return nil, err
			}
			replayEach.add(d, n)

			var arena *disptrace.Arena
			d, err = timed(func() (err error) { arena, err = loaded.Compile(); return })
			if err != nil {
				return nil, err
			}
			compile.add(d, n)
			arenaBytes.add(time.Duration(arena.Bytes()), n)
			sim = cpu.NewSim(cpu.Celeron800)
			d, err = timed(func() error { return disptrace.Replay(loaded, sim, 1) })
			if err != nil {
				return nil, err
			}
			replayCompiled.add(d, n)
			loaded.Attach(nil)
			traces[vname] = loaded
		}
		for _, pair := range [][2]string{{"switch", "plain"}, {"plain", "dynamic super"}} {
			a, b := traces[pair[0]], traces[pair[1]]
			d, err := timed(func() error { _, err := disptrace.DiffTraces(a, b, serve.DefaultDiffDetail); return err })
			if err != nil {
				return nil, err
			}
			diff.add(d, a.Header.VMInstructions)
		}
	}

	train := harness.NewSuite()
	train.ScaleDiv = div
	dTrain, err := timed(func() error {
		if _, err := train.TrainForth(35, 365); err != nil {
			return err
		}
		_, err := train.TrainJavaExcept("compress", 400, 0)
		return err
	})
	if err != nil {
		return nil, err
	}

	rows := map[string]float64{
		"workload.process.ms":                    medianOf(process),
		"core.plan.ms":                           medianOf(plan),
		"core.profile.ns_per_vminst":             profile.per(),
		"core.run.ns_per_vminst":                 run.per(),
		"harness.train.s":                        dTrain.Seconds(),
		"disptrace.record.ns_per_event":          record.per(),
		"disptrace.encode.ns_per_event":          encode.per(),
		"disptrace.disk_bytes_per_event":         diskBytes.per(),
		"disptrace.load.ms":                      medianOf(load),
		"disptrace.decode.ns_per_event":          decode.per(),
		"disptrace.replay.ns_per_event":          replay.per(),
		"disptrace.replay_compiled.ns_per_event": replayCompiled.per(),
		"disptrace.compile.ns_per_event":         compile.per(),
		"disptrace.arena_bytes_per_event":        arenaBytes.per(),
		"disptrace.replay_each.ns_per_event":     replayEach.per(),
		"disptrace.diff.ns_per_inst":             diff.per(),
	}
	for i, pk := range predictorRows {
		rows["cpu.apply.ns_per_event."+pk.name] = apply[i].per()
	}
	return rows, nil
}
