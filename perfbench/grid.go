package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"vmopt/internal/harness"
	"vmopt/internal/workload"
)

// experiment is one entry of the set `vmbench -exp all` regenerates,
// called through the harness's public methods in the same paper order.
type experiment struct {
	name string
	fn   func(s *harness.Suite) error
}

func experiments() []experiment {
	gray := workload.Gray()
	return []experiment{
		{"table1", func(*harness.Suite) error { harness.TableI(); return nil }},
		{"table2", func(*harness.Suite) error { harness.TableII(); return nil }},
		{"table3", func(*harness.Suite) error { harness.TableIII(); return nil }},
		{"table4", func(*harness.Suite) error { harness.TableIV(); return nil }},
		{"table5", func(s *harness.Suite) error { _, err := s.TableV(); return err }},
		{"table6", func(*harness.Suite) error { harness.TableVI(); return nil }},
		{"table7", func(*harness.Suite) error { harness.TableVII(); return nil }},
		{"table8", func(s *harness.Suite) error { _, err := s.TableVIII(); return err }},
		{"table9", func(s *harness.Suite) error { _, _, err := s.TableIX(); return err }},
		{"table10", func(s *harness.Suite) error { _, _, err := s.TableX(); return err }},
		{"fig7", func(s *harness.Suite) error { _, _, err := s.Figure7(); return err }},
		{"fig8", func(s *harness.Suite) error { _, _, err := s.Figure8(); return err }},
		{"fig9", func(s *harness.Suite) error { _, _, err := s.Figure9(); return err }},
		{"fig10", func(s *harness.Suite) error { _, _, err := s.Figure10(); return err }},
		{"fig11", func(s *harness.Suite) error { _, _, err := s.Figure11(); return err }},
		{"fig12", func(s *harness.Suite) error { _, _, err := s.Figure12(); return err }},
		{"fig13", func(s *harness.Suite) error { _, _, err := s.Figure13(); return err }},
		{"fig14", func(s *harness.Suite) error { _, _, err := s.Figure14(); return err }},
		{"fig15", func(s *harness.Suite) error { _, _, err := s.Figure15(); return err }},
		{"fig16", func(s *harness.Suite) error { _, _, err := s.Figure16(); return err }},
		{"rates", func(s *harness.Suite) error { _, _, _, err := s.MispredictRates(); return err }},
		{"fractions", func(s *harness.Suite) error { _, _, _, err := s.BranchFractions(); return err }},
		{"predictors", func(s *harness.Suite) error { _, _, err := s.PredictorComparison(); return err }},
		{"parse", func(s *harness.Suite) error { _, _, err := s.GreedyVsOptimal(); return err }},
		{"selection", func(s *harness.Suite) error { _, _, err := s.RoundRobinVsRandom(); return err }},
		{"btbsize", func(s *harness.Suite) error { _, _, err := s.BTBSizeSweep(gray); return err }},
		{"penalty", func(s *harness.Suite) error { _, _, err := s.PenaltySweep(); return err }},
		{"caseblock", func(s *harness.Suite) error { _, _, err := s.CaseBlockExperiment(); return err }},
		{"lengths", func(s *harness.Suite) error { _, _, err := s.SuperLengths(); return err }},
		{"hardware", func(s *harness.Suite) error { _, _, err := s.HardwareVsSoftware(); return err }},
		{"history", func(s *harness.Suite) error { _, _, err := s.TwoLevelHistorySweep(gray); return err }},
	}
}

// gridSetup makes the suite every pass runs in (direct simulation, no
// trace cache, pool jobs = nproc) and profiles each training workload
// at the grid's scale: the profiles every pass's superinstruction and
// replica training reuses.
func gridSetup(ctx context.Context, div int) (*harness.Suite, error) {
	s := harness.NewSuite()
	s.ScaleDiv = div
	s.Jobs = runtime.NumCPU()
	s.Ctx = ctx
	if _, err := s.TrainForth(0, 0); err != nil {
		return nil, err
	}
	if _, err := s.TrainJavaExcept("", 0, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// runGrid measures grid-direct: whole passes over the experiment set
// for -seconds (at least three). Each pass starts by dropping the
// suite's results, keeping the set-up's training profiles. One
// operation is one experiment call; capacity is simulated runs per
// second of pass time.
func runGrid(ctx context.Context, o options, ref *reference, tr *tracer) (*result, error) {
	res := newResult()
	div := o.gridDiv()
	var s *harness.Suite
	var setupS []float64
	for i := 0; i < setups; i++ {
		settle()
		t := time.Now()
		var err error
		if s, err = gridSetup(ctx, div); err != nil {
			return nil, err
		}
		setupS = append(setupS, since(t))
	}
	res.e2e["setup_s"] = medianOf(setupS)
	res.report["setups_s"] = setupS

	exps := experiments()
	var opMs, passS []float64
	runsPerPass, pairs := 0, 0
	start := time.Now()
	for pass := 0; pass < 3 || since(start)+medianOf(passS) <= o.seconds; pass++ {
		s.DropResults()
		p0 := time.Now()
		root := tr.open("harness.grid", -1, int64(pass), p0)
		for _, ex := range exps {
			t0 := time.Now()
			if err := ex.fn(s); err != nil {
				return nil, fmt.Errorf("pass %d %s: %w", pass, ex.name, err)
			}
			t1 := time.Now()
			opMs = append(opMs, float64(t1.Sub(t0))/1e6)
			tr.record("harness."+ex.name, root, int64(pass), t0, t1)
		}
		p1 := time.Now()
		tr.close(root, p1)
		passS = append(passS, p1.Sub(p0).Seconds())
		runs := s.Snapshot()
		runsPerPass = len(runs)
		seen := map[string]bool{}
		for _, r := range runs {
			seen[r.Workload+"|"+r.Variant] = true
			res.attempted++
			if err := ref.check(r.Workload, r.Variant, r.Machine, div, r.Counters); err != nil {
				res.fail("pass %d: %v", pass, err)
			}
		}
		pairs = len(seen)
	}
	ops := summarize(opMs)
	grid := medianOf(passS)
	res.figure = grid
	res.e2e["op_p50_ms"] = ops.P50
	res.layers["op_tail_ms"] = ops.Tail
	res.e2e["capacity_rps"] = float64(runsPerPass) / grid
	res.layers["grid_s"] = grid
	res.report["scalediv"] = div
	res.report["passes"] = len(passS)
	res.report["pass_s"] = passS
	res.report["runs_per_pass"] = runsPerPass
	res.report["pairs_per_pass"] = pairs
	res.report["op_latency_ms"] = ops
	if tr != nil {
		c := tr.ledger(nil)
		res.report["closure"] = c
		res.layers["harness.grid.self_s"] = c.UnexplainedMs / 1e3 / float64(len(passS))
		res.layers["trace.unexplained_ratio"] = ratio(c.UnexplainedMs, c.FigureMs)
	}
	return res, nil
}
