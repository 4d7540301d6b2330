package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vmopt/internal/cpu"
	"vmopt/internal/disptrace"
	"vmopt/internal/harness"
	"vmopt/internal/loadgen"
	"vmopt/internal/runner"
	"vmopt/internal/serve"
)

// request is one generated HTTP operation and what its answer must be.
type request struct {
	op   string // run, sweep or diff
	body []byte
	div  int
	// cells the answer must carry: one for a run, one per machine for
	// a sweep.
	cells []harness.RunSpec
	// a and b are the diffed trace IDs.
	a, b string
}

// outcome is one answered request.
type outcome struct {
	req                  *request
	intended, sent, done time.Time
	status               int
	err                  error
	body                 []byte
	stages               map[string]float64 // Server-Timing, ms
}

func (o outcome) latencyMs() float64 { return float64(o.done.Sub(o.intended)) / 1e6 }

// serverMs is the server's own Server-Timing total.
func (o outcome) serverMs() float64 {
	t := 0.0
	for _, v := range o.stages {
		t += v
	}
	return t
}

// serveEnv is one set-up server: a recorded trace cache and a
// serve.Server on a loopback listener.
type serveEnv struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	addr   string
	client *http.Client
	// ids maps "workload|variant" to its trace ID at the serve scalediv.
	ids map[string]string
}

// startServe records the warm cell space's traces into a fresh cache
// (a separate suite, so the server's own result memo stays empty),
// starts the server on it with default settings apart from the trace
// cache and default scalediv, and with warm set fills the server's
// result LRU with one sweep per pair.
func startServe(ctx context.Context, o options, dir string, warm bool, ref *reference) (*serveEnv, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	div := o.serveDiv()
	rec := harness.NewSuite()
	rec.ScaleDiv = div
	rec.Jobs = runtime.NumCPU()
	rec.Ctx = ctx
	rec.Traces = disptrace.NewCache(dir)
	pairs := servePairs()
	specs := make([]harness.RunSpec, len(pairs))
	ids := map[string]string{}
	for i, p := range pairs {
		specs[i] = harness.RunSpec{W: p.W, V: p.V, M: cpu.Celeron800}
		ids[p.W.Name+"|"+p.V.Name] = rec.TraceKey(p.W, p.V).ID()
	}
	if _, err := rec.RunSpecs(specs); err != nil {
		return nil, fmt.Errorf("recording traces: %w", err)
	}

	e := &serveEnv{dir: dir, ids: ids, client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     o.conns,
		MaxIdleConnsPerHost: o.conns,
		DisableCompression:  true,
	}}}
	if err := e.startServer(div); err != nil {
		return nil, err
	}
	resp, err := e.client.Get(e.addr + "/healthz")
	if err != nil {
		e.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if warm {
		if err := e.warm(ctx, o, ref); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// warm sweeps every pair once, conns at a time, checking every cell.
func (e *serveEnv) warm(ctx context.Context, o options, ref *reference) error {
	var reqs []*request
	for _, p := range servePairs() {
		reqs = append(reqs, sweepRequest(p, o.serveDiv()))
	}
	outs, _ := e.closedLoop(ctx, reqs, o.conns)
	for _, out := range outs {
		err := out.err
		if err == nil && out.status != http.StatusOK {
			err = fmt.Errorf("HTTP %d", out.status)
		}
		if err == nil {
			err = checkSweep(out, ref)
		}
		if err != nil {
			return fmt.Errorf("warming with %s: %w", out.req.body, err)
		}
	}
	return nil
}

// startServer serves the trace cache with a fresh serve.Server:
// default settings apart from the trace cache and default scalediv.
func (e *serveEnv) startServer(div int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = serve.New(serve.Config{Traces: disptrace.NewCache(e.dir), DefaultScaleDiv: div})
	e.hs = &http.Server{Handler: e.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	e.addr = "http://" + ln.Addr().String()
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	return nil
}

// restart replaces the server with a fresh one on the same trace
// cache: empty result LRU, suites and compiled tier. The old server's
// memory is returned first, so it does not add to the peak.
func (e *serveEnv) restart(div int) error {
	e.stopServer()
	settle()
	return e.startServer(div)
}

// stopServer shuts the server down and waits until it has stopped.
func (e *serveEnv) stopServer() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// close stops the server and deletes its trace cache.
func (e *serveEnv) close() {
	e.stopServer()
	os.RemoveAll(e.dir)
}

// do sends one request and reads the whole answer, trailers included.
func (e *serveEnv) do(ctx context.Context, r *request) outcome {
	out := outcome{req: r, sent: time.Now()}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.addr+"/v1/"+r.op, bytes.NewReader(r.body))
	if err != nil {
		out.err, out.done = err, time.Now()
		return out
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(hreq)
	if err != nil {
		out.err, out.done = err, time.Now()
		return out
	}
	out.body, out.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.done = time.Now()
	out.status = resp.StatusCode
	st := resp.Header.Get("Server-Timing")
	if st == "" {
		st = resp.Trailer.Get("Server-Timing")
	}
	out.stages = parseServerTiming(st)
	return out
}

// parseServerTiming reads "name;dur=ms, ..." into a map.
func parseServerTiming(v string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(v, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok {
			continue
		}
		if d, ok := strings.CutPrefix(strings.TrimSpace(params), "dur="); ok {
			if ms, err := strconv.ParseFloat(d, 64); err == nil {
				out[name] += ms
			}
		}
	}
	return out
}

func runRequest(c harness.RunSpec, div int) *request {
	b, _ := json.Marshal(serve.RunRequest{Workload: c.W.Name, Variant: c.V.Name, Machine: c.M.Name, ScaleDiv: div})
	return &request{op: "run", body: b, div: div, cells: []harness.RunSpec{c}}
}

func sweepRequest(p harness.RunSpec, div int) *request {
	b, _ := json.Marshal(serve.SweepRequest{Workloads: []string{p.W.Name}, Variants: []string{p.V.Name}, ScaleDiv: div})
	r := &request{op: "sweep", body: b, div: div}
	for _, m := range cpu.Machines() {
		r.cells = append(r.cells, harness.RunSpec{W: p.W, V: p.V, M: m})
	}
	return r
}

func diffRequest(a, b string) *request {
	body, _ := json.Marshal(serve.DiffRequest{A: a, B: b, N: serve.DefaultDiffDetail})
	return &request{op: "diff", body: body, a: a, b: b}
}

// checkRun verifies a /v1/run answer against the reference.
func checkRun(o outcome, ref *reference) error {
	var r runner.Run
	if err := json.Unmarshal(o.body, &r); err != nil {
		return fmt.Errorf("decoding run: %w", err)
	}
	c := o.req.cells[0]
	if r.Workload != c.W.Name || r.Variant != c.V.Name || r.Machine != c.M.Name {
		return fmt.Errorf("answer names %s/%s/%s, asked %s/%s/%s", r.Workload, r.Variant, r.Machine, c.W.Name, c.V.Name, c.M.Name)
	}
	return ref.check(r.Workload, r.Variant, r.Machine, o.req.div, r.Counters)
}

// checkSweep verifies every line of a /v1/sweep answer: each machine's
// cell exactly once, no cell error lines, a clean summary.
func checkSweep(o outcome, ref *reference) error {
	seen := map[string]bool{}
	done := false
	sc := bufio.NewScanner(bytes.NewReader(o.body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var l serve.SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return fmt.Errorf("decoding sweep line: %w", err)
		}
		switch {
		case l.Error != "":
			return fmt.Errorf("cell error %s/%s on %s: %s", l.Workload, l.Variant, l.Machine, l.Error)
		case l.Run != nil:
			if seen[l.Run.Machine] {
				return fmt.Errorf("machine %s answered twice", l.Run.Machine)
			}
			seen[l.Run.Machine] = true
			if err := ref.check(l.Run.Workload, l.Run.Variant, l.Run.Machine, o.req.div, l.Run.Counters); err != nil {
				return err
			}
		case l.Done:
			done = true
			if l.Errors != 0 {
				return fmt.Errorf("summary reports %d errors", l.Errors)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done || len(seen) != len(o.req.cells) {
		return fmt.Errorf("sweep answered %d of %d cells (summary seen: %v)", len(seen), len(o.req.cells), done)
	}
	return nil
}

// diffChecker recomputes each diff with disptrace.DiffTraces called
// directly on the same two cached traces.
type diffChecker struct {
	cache *disptrace.Cache
	want  map[[2]string][]byte
}

func (d *diffChecker) check(o outcome) error {
	k := [2]string{o.req.a, o.req.b}
	want, ok := d.want[k]
	if !ok {
		a, _, err := d.cache.LoadID(o.req.a)
		if err != nil {
			return err
		}
		b, _, err := d.cache.LoadID(o.req.b)
		if err != nil {
			return err
		}
		rep, err := disptrace.DiffTraces(a, b, serve.DefaultDiffDetail)
		if err != nil {
			return err
		}
		body, err := json.Marshal(serve.DiffResponse{A: o.req.a, B: o.req.b, Report: rep})
		if err != nil {
			return err
		}
		want = append(body, '\n')
		d.want[k] = want
	}
	if !bytes.Equal(o.body, want) {
		return errors.New("diff answer differs from disptrace.DiffTraces on the same traces")
	}
	return nil
}

// verify checks every outcome, counting each as attempted and each
// failure, refusal, wrong counter or cell error as failed.
func verify(outs []outcome, ref *reference, dc *diffChecker, res *result) {
	for _, o := range outs {
		res.attempted++
		err := o.err
		if err == nil && o.status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", o.status, firstLine(o.body))
		}
		if err == nil {
			switch o.req.op {
			case "run":
				err = checkRun(o, ref)
			case "sweep":
				err = checkSweep(o, ref)
			case "diff":
				err = dc.check(o)
			}
		}
		if err != nil {
			res.fail("%s %s: %v", o.req.op, o.req.body, err)
		}
	}
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// openLoop sends reqs on a seeded Poisson schedule, each timed from
// its intended send time, and returns the outcomes and the generator's
// lateness per send. A traced run traces every request.
func (e *serveEnv) openLoop(ctx context.Context, reqs []*request, rate float64, seed int64, tr *tracer, idBase int64) ([]outcome, []float64) {
	sched, _ := loadgen.NewSchedule(loadgen.SchedulePoisson, rate, seed)
	outs := make([]outcome, len(reqs))
	late := make([]float64, 0, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		intended := start.Add(sched.Next())
		time.Sleep(time.Until(intended))
		late = append(late, float64(time.Since(intended))/1e6)
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := e.do(ctx, reqs[i])
			o.intended = intended
			if tr != nil {
				traceOutcome(tr, idBase+int64(i), o)
			}
			outs[i] = o
		}()
	}
	wg.Wait()
	return outs, late
}

// traceOutcome records a request's client span, its generator
// lateness, and its Server-Timing stages laid end to end from the send
// time, clipped to the client span.
func traceOutcome(tr *tracer, id int64, o outcome) {
	root := tr.record("client."+o.req.op, -1, id, o.intended, o.done)
	tr.record("client.late", root, id, o.intended, o.sent)
	at := o.sent
	for _, name := range sortedKeys(o.stages) {
		end := at.Add(time.Duration(o.stages[name] * 1e6))
		if end.After(o.done) {
			end = o.done
		}
		tr.record("serve."+o.req.op+"."+name, root, id, at, end)
		at = end
	}
}

// closedLoop runs conns clients back to back until reqs are done; it
// returns the outcomes and the elapsed time.
func (e *serveEnv) closedLoop(ctx context.Context, reqs []*request, conns int) ([]outcome, time.Duration) {
	var next atomic.Int64
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				o := e.do(ctx, reqs[i])
				o.intended = o.sent
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// serveMix describes one serve workload.
type serveMix struct {
	name string
	rate float64
	// open is how many rounds the open-loop phase runs; closed-loop
	// rounds follow until their share of -seconds is used.
	open int
	// warm fills the result LRU during set-up and after every reset.
	warm bool
	// reset, when set, runs before every round after the first.
	reset func(o options, env *serveEnv) error
	// gen returns the seeded generator of the rounds' request lists.
	// Each round has a fixed composition; the seed draws the order
	// (and serve-skewed's zipfian cells).
	gen func(o options, env *serveEnv, rng *rand.Rand) func() []*request
}

func runServeReplay(ctx context.Context, o options, ref *reference, tr *tracer) (*result, error) {
	return runServe(ctx, o, ref, tr, serveMix{name: "serve-replay", rate: replayRate, open: replayOpen, gen: genReplay,
		reset: func(o options, env *serveEnv) error { return env.restart(o.serveDiv()) }})
}

func runServeSkewed(ctx context.Context, o options, ref *reference, tr *tracer) (*result, error) {
	return runServe(ctx, o, ref, tr, serveMix{name: "serve-skewed", rate: skewedRate, open: 1, warm: true, gen: genSkewed,
		reset: func(o options, env *serveEnv) error {
			// Forget every record-scalediv trace, so the next round's
			// record runs record again, and re-warm a fresh server.
			s := harness.NewSuite()
			s.ScaleDiv = o.recordDiv()
			c := disptrace.NewCache(env.dir)
			for _, p := range servePairs() {
				if err := os.Remove(c.Path(s.TraceKey(p.W, p.V))); err != nil && !os.IsNotExist(err) {
					return err
				}
			}
			if err := env.restart(o.serveDiv()); err != nil {
				return err
			}
			return env.warm(ctx, o, ref)
		}})
}

func shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// replayOpen is how many open-loop rounds serve-replay runs, each over
// every served cell on a fresh server.
const replayOpen = 2

// genReplay covers every served cell once per round: every third pair
// whole by a sweep, the other pairs' cells by single-cell runs, in a
// seeded order. No cell repeats within a round, and each round runs on
// a fresh server, so every request misses the result LRU and the suite
// memo and is served from the trace cache.
func genReplay(o options, _ *serveEnv, rng *rand.Rand) func() []*request {
	var reqs []*request
	for i, p := range servePairs() {
		if i%3 == 0 {
			reqs = append(reqs, sweepRequest(p, o.serveDiv()))
			continue
		}
		for _, m := range cpu.Machines() {
			reqs = append(reqs, runRequest(harness.RunSpec{W: p.W, V: p.V, M: m}, o.serveDiv()))
		}
	}
	return func() []*request {
		r := append([]*request(nil), reqs...)
		shuffle(rng, r)
		return r
	}
}

// serve-skewed's rounds are alike: one run at the record scalediv on
// every pair (celeron-800), each recording a new trace; diffs of
// switch against plain and of static super against dynamic super on
// every workload; and zipfian LRU-hit runs up to skewedRequests in
// all. Before each closed-loop round the record-scalediv traces are
// deleted and a fresh server is warmed, so the round records again and
// every trace stays below the compile-after threshold (one set-up or
// warm load plus one diff load per server).
const (
	skewedTheta    = 0.99
	skewedRequests = 1440
)

var skewedDiffs = [][2]string{{"switch", "plain"}, {"static super", "dynamic super"}}

// genSkewed draws each round's zipfian runs over the warm cells (which
// cells are hot is seeded) and its order.
func genSkewed(o options, env *serveEnv, rng *rand.Rand) func() []*request {
	cells := serveCells()
	shuffle(rng, cells)
	z := loadgen.NewZipfian(len(cells), skewedTheta)
	return func() []*request {
		var reqs []*request
		for _, p := range servePairs() {
			p.M = cpu.Celeron800
			reqs = append(reqs, runRequest(p, o.recordDiv()))
		}
		for _, w := range serveWorkloads() {
			for _, d := range skewedDiffs {
				reqs = append(reqs, diffRequest(env.ids[w.Name+"|"+d[0]], env.ids[w.Name+"|"+d[1]]))
			}
		}
		for len(reqs) < skewedRequests {
			reqs = append(reqs, runRequest(cells[z.Next(rng)], o.serveDiv()))
		}
		shuffle(rng, reqs)
		return reqs
	}
}

// serverCounters are the /metrics series the ledger reads.
var serverCounters = map[string]string{
	"trace_loads":        "vmserved_trace_loads_total",
	"trace_records":      "vmserved_trace_records_total",
	"compiled_builds":    "vmserved_compiled_builds_total",
	"compiled_evictions": "vmserved_compiled_evictions_total",
	"compiled_hits":      "vmserved_compiled_hits_total",
	"lru_hits":           "vmserved_cache_hits_total",
	"lru_misses":         "vmserved_cache_misses_total",
	"rejected":           "vmserved_rejected_total",
}

// metricsDelta turns two scrapes into counter deltas, summing labelled
// series (coalesced_total by kind) under their family name.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		d[k] = v - before[k]
		if fam, _, ok := strings.Cut(k, "{"); ok && fam == "vmserved_coalesced_total" {
			d[fam] += v - before[k]
		}
	}
	return d
}

// addDelta accumulates one phase's deltas into a total.
func addDelta(total, d map[string]float64) {
	for k, v := range d {
		total[k] += v
	}
}

// crossCheck compares client-counted requests per endpoint with the
// server's own request counter.
func crossCheck(outs []outcome, delta map[string]float64) string {
	client := map[string]int{}
	for _, o := range outs {
		client[o.req.op]++
	}
	var bad []string
	for _, ep := range []string{"run", "sweep", "diff"} {
		server := delta[`vmserved_requests_total{endpoint="`+ep+`"}`]
		if float64(client[ep]) != server {
			bad = append(bad, fmt.Sprintf("%s: client %d, server %g", ep, client[ep], server))
		}
	}
	return strings.Join(bad, "; ")
}

// stageNames are the Server-Timing stages the ledger reports.
var stageNames = []string{"parse", "queue", "lru", "flight", "trace_load", "record", "decode", "apply", "compiled", "sim", "diff", "encode", "other"}

// phase runs one load phase between two /metrics scrapes and
// cross-checks the server's request counts against the client's.
func (e *serveEnv) phase(run func() []outcome) ([]outcome, map[string]float64, string, error) {
	before, err := loadgen.ScrapeMetrics(e.client, e.addr)
	if err != nil {
		return nil, nil, "", err
	}
	outs := run()
	after, err := loadgen.ScrapeMetrics(e.client, e.addr)
	if err != nil {
		return nil, nil, "", err
	}
	d := metricsDelta(before, after)
	return outs, d, crossCheck(outs, d), nil
}

func runServe(ctx context.Context, o options, ref *reference, tr *tracer, mix serveMix) (*result, error) {
	res := newResult()
	var env *serveEnv
	var setupS []float64
	for i := 0; i < setups; i++ {
		if env != nil {
			env.close()
		}
		settle()
		t := time.Now()
		var err error
		env, err = startServe(ctx, o, filepath.Join(o.workdir, fmt.Sprintf("%s-cache-%d", mix.name, i)), mix.warm, ref)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, since(t))
	}
	defer env.close()
	res.e2e["setup_s"] = medianOf(setupS)
	res.report["setups_s"] = setupS

	rng := rand.New(rand.NewSource(o.seed))
	next := mix.gen(o, env, rng)
	// The open-loop rounds take openShare of -seconds at the fixed
	// rate; a shorter -seconds trims every round alike, closed-loop
	// ones too. Closed-loop rounds, resets included, repeat until the
	// rest of -seconds is used, at least one.
	n := int(mix.rate * openShare * o.seconds / float64(mix.open))
	closedFor := (1 - openShare) * o.seconds
	var closedStart time.Time

	// Each round's answers are checked as it ends and then dropped, so
	// the benchmark's own memory does not grow with the rounds and
	// raise the peak. Open-loop outcomes keep their timings for the
	// latency figures; closed-loop rounds keep only their busy time.
	dc := &diffChecker{cache: disptrace.NewCache(env.dir), want: map[[2]string][]byte{}}
	var opens []outcome
	var closedN int
	var closedBusy time.Duration
	var late []float64
	var elapsed time.Duration
	var roundCap []float64
	var crossBad []string
	d1, d2 := map[string]float64{}, map[string]float64{}
	for round := 0; ; round++ {
		isOpen := round < mix.open
		if round == mix.open {
			closedStart = time.Now()
		} else if !isOpen && since(closedStart) >= closedFor {
			break
		}
		if round > 0 && mix.reset != nil {
			if err := mix.reset(o, env); err != nil {
				return nil, fmt.Errorf("reset before round %d: %w", round, err)
			}
		}
		settle()
		reqs := next()
		reqs = reqs[:min(n, len(reqs))]
		outs, d, bad, err := env.phase(func() []outcome {
			if isOpen {
				outs, l := env.openLoop(ctx, reqs, mix.rate, o.seed+int64(round), tr, int64(len(opens)))
				late = append(late, l...)
				return outs
			}
			outs, e := env.closedLoop(ctx, reqs, o.conns)
			elapsed += e
			return outs
		})
		if err != nil {
			return nil, err
		}
		if bad != "" {
			crossBad = append(crossBad, fmt.Sprintf("round %d: %s", round, bad))
		}
		verify(outs, ref, dc, res)
		for i := range outs {
			outs[i].body = nil
		}
		if isOpen {
			opens = append(opens, outs...)
			addDelta(d1, d)
		} else {
			b := busy(outs)
			closedN += len(outs)
			closedBusy += b
			roundCap = append(roundCap, littleRate(len(outs), b, o.conns))
			addDelta(d2, d)
		}
	}

	res.crossCheck = strings.Join(crossBad, "; ")

	// End-to-end: open-loop latency from intended send time, and
	// closed-loop capacity.
	var all []float64
	byOp := map[string][]float64{}
	for _, o := range opens {
		all = append(all, o.latencyMs())
		byOp[o.req.op] = append(byOp[o.req.op], o.latencyMs())
	}
	ops := summarize(all)
	res.figure = ops.P50
	res.e2e["op_p50_ms"] = ops.P50
	res.layers["op_tail_ms"] = ops.Tail
	// Capacity by Little's law rather than count / wall time, which also
	// counts the drain, where fewer clients are busy while the last long
	// requests finish.
	res.e2e["capacity_rps"] = littleRate(closedN, closedBusy, o.conns)
	lateP99 := p99(late)
	perOp := map[string]dist{}
	for op, xs := range byOp {
		perOp[op] = summarize(xs)
	}
	run := perOp["run"]
	res.report["rate_rps"] = mix.rate
	res.report["scalediv"] = o.serveDiv()
	res.report["open_loop"] = map[string]any{"requests": len(opens), "latency_ms": ops, "per_op": perOp, "late_ms": summarize(late), "late_p99_ms": lateP99}
	res.report["closed_loop"] = map[string]any{"requests": closedN, "conns": o.conns, "seconds": elapsed.Seconds(),
		"completed_per_s": float64(closedN) / elapsed.Seconds(), "round_capacity_rps": roundCap}
	res.report["valid"] = lateP99 <= lateLimitMs
	if lateP99 > lateLimitMs {
		res.report["invalid_reason"] = fmt.Sprintf("generator p99 lateness %.1f ms exceeds %.0f ms", lateP99, lateLimitMs)
	}
	res.report["run_tail_limit_ms"] = runTailLimitMs
	res.report["run_tail_limit_met"] = run.N > 0 && run.Tail <= runTailLimitMs
	res.report["server_delta"] = map[string]any{"open_loop": pick(d1), "closed_loop": pick(d2)}
	res.report["slowest"] = slowest(opens, 12)
	if tr == nil {
		return res, nil
	}

	// Per-layer ledger.
	for _, op := range []string{"run", "sweep", "diff"} {
		d := perOp[op]
		res.layers[op+"_p50_ms"] = d.P50
		res.layers[op+"_tail_ms"] = d.Tail
		var n int
		sums := map[string]float64{}
		for _, o := range opens {
			if o.req.op == op {
				n++
				for st, v := range o.stages {
					sums[st] += v
				}
			}
		}
		for _, st := range stageNames {
			res.layers["serve."+op+"."+st+".ms"] = ratio(sums[st], float64(n))
		}
	}
	dAll := map[string]float64{}
	addDelta(dAll, d1)
	addDelta(dAll, d2)
	g := func(k string) float64 { return dAll[serverCounters[k]] }
	for _, k := range []string{"trace_loads", "trace_records", "compiled_builds", "compiled_evictions"} {
		res.layers["disptrace."+k] = g(k)
	}
	res.layers["disptrace.compiled_hit_ratio"] = ratio(g("compiled_hits"), g("compiled_hits")+g("trace_loads"))
	res.layers["serve.lru_hit_ratio"] = ratio(g("lru_hits"), g("lru_hits")+g("lru_misses"))
	res.layers["serve.coalesced"] = dAll["vmserved_coalesced_total"]
	res.layers["serve.rejected"] = g("rejected")
	res.layers["client.late_ms"] = lateP99
	var transport []float64
	for _, o := range opens {
		if o.err == nil && len(o.stages) > 0 {
			transport = append(transport, float64(o.done.Sub(o.sent))/1e6-o.serverMs())
		}
	}
	res.layers["client.transport_ms"] = medianOf(transport)
	unexplained := map[string]bool{}
	for _, op := range []string{"run", "sweep", "diff"} {
		unexplained["serve."+op+".other"] = true
	}
	c := tr.ledger(unexplained)
	res.report["closure"] = c
	res.layers["trace.unexplained_ratio"] = ratio(c.UnexplainedMs, c.FigureMs)
	return res, nil
}

// pick keeps the ledger's counters from a delta, by short name.
func pick(d map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, series := range serverCounters {
		out[k] = d[series]
	}
	out["coalesced"] = d["vmserved_coalesced_total"]
	for _, ep := range []string{"run", "sweep", "diff"} {
		out["requests_"+ep] = d[`vmserved_requests_total{endpoint="`+ep+`"}`]
	}
	return out
}

// settle collects garbage and returns it to the OS between set-ups and
// phases, so peak RSS reflects the heaviest phase, not the garbage
// earlier ones left behind.
func settle() {
	debug.FreeOSMemory()
}

// slowest lists the n slowest open-loop requests with their stages.
func slowest(outs []outcome, n int) []string {
	s := append([]outcome(nil), outs...)
	sort.Slice(s, func(i, j int) bool { return s[i].latencyMs() > s[j].latencyMs() })
	var out []string
	for _, o := range s[:min(n, len(s))] {
		out = append(out, fmt.Sprintf("%.1f ms late %.1f %s %s %v", o.latencyMs(), float64(o.sent.Sub(o.intended))/1e6, o.req.op, o.req.body, o.stages))
	}
	return out
}

// busy sums the outcomes' latencies from their send times.
func busy(outs []outcome) time.Duration {
	var total time.Duration
	for _, o := range outs {
		total += o.done.Sub(o.sent)
	}
	return total
}

// littleRate is closed-loop throughput by Little's law: conns clients,
// each always busy, complete conns / mean latency requests per second.
func littleRate(n int, busy time.Duration, conns int) float64 {
	return float64(conns) * float64(n) / busy.Seconds()
}
