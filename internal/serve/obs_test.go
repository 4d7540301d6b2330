package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vmopt/internal/disptrace"
	"vmopt/internal/loadgen"
	"vmopt/internal/metrics"
	"vmopt/internal/obs"
)

// scrape fetches GET /metrics and parses it with the same strict
// parser vmload uses in CI, so a test failure here is exactly what
// would fail a real scrape.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.TextContentType)
	}
	series, err := loadgen.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text format: %v", err)
	}
	return series
}

// TestMetricsMatchStats drives a mixed workload — runs with a repeat
// (LRU hit), a sweep, a diff, a trace listing, a rejected request and
// a failed one — then checks that every counter GET /metrics exposes
// agrees exactly with the GET /v1/stats document: two renderings of
// one registry.
func TestMetricsMatchStats(t *testing.T) {
	cache := disptrace.NewCache(t.TempDir())
	s, ts := newTestServer(t, Config{Traces: cache, MaxInFlight: 2})

	for _, variant := range []string{"plain", "switch"} {
		status, body := post(t, ts.URL+"/v1/run", RunRequest{
			Workload: "gray", Variant: variant, Machine: "celeron-800", ScaleDiv: testScaleDiv,
		})
		if status != http.StatusOK {
			t.Fatalf("run %s: HTTP %d: %s", variant, status, body)
		}
	}
	// Repeat of the first run: an LRU hit.
	if status, body := post(t, ts.URL+"/v1/run", RunRequest{
		Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv,
	}); status != http.StatusOK {
		t.Fatalf("repeat run: HTTP %d: %s", status, body)
	}
	if status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
		Workloads: []string{"gray"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv,
	}); status != http.StatusOK {
		t.Fatalf("sweep: HTTP %d: %s", status, body)
	}
	entries, err := cache.List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("cache holds %d traces (%v), want 2", len(entries), err)
	}
	if status, body := post(t, ts.URL+"/v1/diff", DiffRequest{A: entries[0].ID, B: entries[1].ID}); status != http.StatusOK {
		t.Fatalf("diff: HTTP %d: %s", status, body)
	}
	if _, err := fetchOK(ts.URL + "/v1/traces"); err != nil {
		t.Fatal(err)
	}
	// One failure (unknown workload -> 400) and one rejection (503).
	if status, _ := post(t, ts.URL+"/v1/run", RunRequest{Workload: "nope", Variant: "plain", Machine: "celeron-800"}); status != http.StatusBadRequest {
		t.Fatalf("unknown workload: HTTP %d, want 400", status)
	}
	s.stats.inFlight.Add(2)
	if status, _ := post(t, ts.URL+"/v1/run", RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv}); status != http.StatusServiceUnavailable {
		t.Fatalf("at capacity: HTTP %d, want 503", status)
	}
	s.stats.inFlight.Add(-2)

	// /v1/stats first, /metrics second: the scrape is deliberately
	// uninstrumented, so nothing moves between the two reads except
	// the stats request's own latency observation (checked separately).
	statsBody, err := fetchOK(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.Unmarshal(statsBody, &st); err != nil {
		t.Fatal(err)
	}
	series := scrape(t, ts.URL)

	want := map[string]uint64{
		`vmserved_requests_total{endpoint="run"}`:    st.Requests.Run,
		`vmserved_requests_total{endpoint="sweep"}`:  st.Requests.Sweep,
		`vmserved_requests_total{endpoint="diff"}`:   st.Requests.Diff,
		`vmserved_requests_total{endpoint="traces"}`: st.Requests.Traces,
		`vmserved_requests_total{endpoint="stats"}`:  st.Requests.Stats,
		`vmserved_rejected_total`:                    st.Requests.Rejected,
		`vmserved_errors_total`:                      st.Requests.Errors,
		`vmserved_cache_hits_total`:                  st.Cache.Hits,
		`vmserved_cache_misses_total`:                st.Cache.Misses,
		`vmserved_cache_evictions_total`:             st.Cache.Evictions,
		`vmserved_cache_entries`:                     uint64(st.Cache.Size),
		`vmserved_coalesced_total{kind="runs"}`:      st.Coalesced.Runs,
		`vmserved_coalesced_total{kind="groups"}`:    st.Coalesced.Groups,
		`vmserved_coalesced_total{kind="diffs"}`:     st.Coalesced.Diffs,
		`vmserved_canceled_retries_total`:            st.Coalesced.CanceledRetries,
		`vmserved_computed_total{kind="cells"}`:      st.Computed.Cells,
		`vmserved_computed_total{kind="groups"}`:     st.Computed.Groups,
		`vmserved_computed_total{kind="diffs"}`:      st.Computed.Diffs,
		`vmserved_suites_live`:                       uint64(st.Suites.Live),
		`vmserved_in_flight`:                         0,
	}
	for _, ep := range []string{"run", "sweep", "diff", "traces"} {
		want[fmt.Sprintf("vmserved_request_seconds_count{endpoint=%q}", ep)] = st.Latency[ep].Count
	}
	for key, v := range want {
		got, ok := series[key]
		if !ok {
			t.Errorf("/metrics is missing series %s", key)
			continue
		}
		if got != float64(v) {
			t.Errorf("%s = %v in /metrics, but /v1/stats says %d", key, got, v)
		}
	}

	// The workload actually moved the counters this test is about.
	if st.Requests.Run != 5 || st.Requests.Sweep != 1 || st.Requests.Diff != 1 {
		t.Errorf("requests = %+v, want 5 runs, 1 sweep, 1 diff", st.Requests)
	}
	if st.Requests.Rejected != 1 || st.Requests.Errors != 1 {
		t.Errorf("rejected/errors = %d/%d, want 1/1", st.Requests.Rejected, st.Requests.Errors)
	}
	if st.Cache.Hits == 0 || st.Computed.Cells == 0 {
		t.Errorf("workload produced no cache hit (%d) or computed cell (%d)", st.Cache.Hits, st.Computed.Cells)
	}
	if st.Latency["stats"].Count != 0 {
		// The stats request observes its own latency only after its
		// response is written; the snapshot it returned cannot have
		// counted itself yet, but the later scrape must have.
		t.Errorf("stats latency count in its own snapshot = %d, want 0", st.Latency["stats"].Count)
	}
	if got := series[`vmserved_request_seconds_count{endpoint="stats"}`]; got != 1 {
		t.Errorf("stats latency count after the response completed = %v, want 1", got)
	}

	// Histogram exposition: cumulative run buckets ending in +Inf ==
	// _count.
	infKey := `vmserved_request_seconds_bucket{endpoint="run",le="+Inf"}`
	if series[infKey] != float64(st.Latency["run"].Count) {
		t.Errorf("%s = %v, want %d", infKey, series[infKey], st.Latency["run"].Count)
	}
}

// TestRequestIDAndServerTiming checks the per-request trace surface:
// the X-Request-ID echo and generation, a Server-Timing header whose
// stage durations account for the server-measured handler latency
// within 10%, and the trace appearing in GET /debug/requests with the
// same breakdown.
func TestRequestIDAndServerTiming(t *testing.T) {
	_, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir())})

	body, _ := json.Marshal(RunRequest{Workload: "gray", Variant: "plain", Machine: "celeron-800", ScaleDiv: testScaleDiv})
	req, err := http.NewRequest("POST", ts.URL+"/v1/run", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "test-req-42" {
		t.Errorf("X-Request-ID = %q, want the supplied id echoed back", got)
	}
	timing := resp.Header.Get("Server-Timing")
	if timing == "" {
		t.Fatal("run response has no Server-Timing header")
	}

	// A request without an id gets a generated one.
	resp2, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("server did not generate an X-Request-ID")
	}

	// The header's stage durations must sum to the handler latency the
	// server itself measured for that request (within 10% — the
	// "other" stage tiles the unattributed remainder, so the two can
	// only drift by rounding or concurrent-span overlap).
	debugBody, err := fetchOK(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var dbg obs.DebugRequests
	if err := json.Unmarshal(debugBody, &dbg); err != nil {
		t.Fatalf("/debug/requests is not valid JSON: %v", err)
	}
	var trace *obs.TraceSnapshot
	for i := range dbg.Recent {
		if dbg.Recent[i].ID == "test-req-42" {
			trace = &dbg.Recent[i]
			break
		}
	}
	if trace == nil {
		t.Fatalf("trace test-req-42 not in /debug/requests recent list (%d entries)", len(dbg.Recent))
	}
	if trace.Endpoint != "run" || trace.Status != http.StatusOK {
		t.Errorf("trace = %s/%d, want run/200", trace.Endpoint, trace.Status)
	}
	if trace.Outcome != "computed" {
		t.Errorf("first run's outcome = %q, want computed", trace.Outcome)
	}
	var headerSum float64
	stageNames := map[string]bool{}
	for _, entry := range strings.Split(timing, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) != 2 || !strings.HasPrefix(parts[1], "dur=") {
			t.Fatalf("malformed Server-Timing entry %q in %q", entry, timing)
		}
		ms, err := strconv.ParseFloat(strings.TrimPrefix(parts[1], "dur="), 64)
		if err != nil {
			t.Fatalf("bad duration in %q: %v", entry, err)
		}
		headerSum += ms
		stageNames[parts[0]] = true
	}
	for _, want := range []string{"parse", "queue", "encode"} {
		if !stageNames[want] {
			t.Errorf("Server-Timing %q lacks a %q stage", timing, want)
		}
	}
	// With a trace cache the first run's simulation happens inside the
	// recording stage; without one it would be "sim".
	if !stageNames["record"] && !stageNames["sim"] {
		t.Errorf("Server-Timing %q attributes the computation to neither record nor sim", timing)
	}
	tol := 0.10*trace.DurMS + 0.05 // 10% plus rendering slack for sub-ms requests
	if diff := math.Abs(headerSum - trace.DurMS); diff > tol {
		t.Errorf("Server-Timing stages sum to %.3fms but the handler took %.3fms (diff %.3fms > %.3fms)",
			headerSum, trace.DurMS, diff, tol)
	}

	// The slowest-per-endpoint index retained the run too.
	if len(dbg.Slowest["run"]) == 0 {
		t.Error("/debug/requests has no slowest entries for run")
	}

	// Streaming responses cannot know their breakdown at WriteHeader
	// time; the sweep delivers Server-Timing as a declared trailer.
	sweepBody, _ := json.Marshal(SweepRequest{Workloads: []string{"gray"}, Variants: []string{"plain"}, ScaleDiv: testScaleDiv})
	sresp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(string(sweepBody)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fetchBody(sresp); err != nil {
		t.Fatal(err)
	}
	if got := sresp.Trailer.Get("Server-Timing"); got == "" {
		t.Error("sweep response has no Server-Timing trailer")
	}
}

// fetchBody drains and closes a response body; trailers are only
// populated once the body has been read to EOF.
func fetchBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// TestMetricsScrapeUnderLoad scrapes /metrics and /debug/requests
// concurrently with live traffic — the race-detector soak for the
// whole observability surface (registry collection callbacks, the
// recorder ring, trace span appends).
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Traces: disptrace.NewCache(t.TempDir())})
	variants := []string{"plain", "dynamic super", "switch"}

	var wg sync.WaitGroup
	for i := range 9 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%3 == 0 {
				status, body := post(t, ts.URL+"/v1/sweep", SweepRequest{
					Workloads: []string{"gray"}, Variants: variants[:1+i%2], ScaleDiv: testScaleDiv,
				})
				if status != http.StatusOK {
					t.Errorf("sweep %d: HTTP %d: %s", i, status, body)
				}
				return
			}
			status, body := post(t, ts.URL+"/v1/run", RunRequest{
				Workload: "gray", Variant: variants[i%len(variants)], Machine: "celeron-800", ScaleDiv: testScaleDiv,
			})
			if status != http.StatusOK {
				t.Errorf("run %d: HTTP %d: %s", i, status, body)
			}
		}()
	}
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for range 3 {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				series := scrape(t, ts.URL)
				if len(series) == 0 {
					t.Error("empty /metrics scrape")
				}
				body, err := fetchOK(ts.URL + "/debug/requests")
				if err != nil {
					t.Error(err)
					return
				}
				var dbg obs.DebugRequests
				if err := json.Unmarshal(body, &dbg); err != nil {
					t.Errorf("/debug/requests mid-load: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	series := scrape(t, ts.URL)
	if got := series[`vmserved_requests_total{endpoint="run"}`]; got != 6 {
		t.Errorf("run requests after load = %v, want 6", got)
	}
	if got := series[`vmserved_requests_total{endpoint="sweep"}`]; got != 3 {
		t.Errorf("sweep requests after load = %v, want 3", got)
	}
}
