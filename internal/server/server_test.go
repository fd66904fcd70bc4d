package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fft"
)

// ---- worker pool ----

func TestPoolRunsJobs(t *testing.T) {
	// Queue depth >= submitter count: submit is non-blocking and sheds
	// with ErrSaturated when the queue is full, so a smaller queue would
	// make this scheduling-dependent (saturation itself is pinned by
	// TestHTTPSaturationReturns429).
	p := newWorkerPool(4, 32)
	defer p.close()
	var mu sync.Mutex
	ran := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.do(context.Background(), func() {
				mu.Lock()
				ran++
				mu.Unlock()
			}); err != nil {
				t.Errorf("do: %v", err)
			}
		}()
	}
	wg.Wait()
	if ran != 32 {
		t.Fatalf("ran = %d, want 32", ran)
	}
}

func TestPoolRecoversPanics(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.close()
	err := p.do(context.Background(), func() { panic("boom") })
	var pe *panicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want panicError", err)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic message lost: %v", pe)
	}
	if httpStatus(err) != http.StatusInternalServerError {
		t.Fatalf("panic must map to 500, got %d", httpStatus(err))
	}
	// The worker survived: the pool still serves jobs.
	if err := p.do(context.Background(), func() {}); err != nil {
		t.Fatalf("pool dead after panic: %v", err)
	}
}

func TestPoolDraining(t *testing.T) {
	p := newWorkerPool(1, 1)
	p.close()
	err := p.do(context.Background(), func() {})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	if httpStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("draining must map to 503, got %d", httpStatus(err))
	}
	p.close() // idempotent
}

func TestPoolSaturationRejects(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.close()
	block := make(chan struct{})
	go func() { _ = p.do(context.Background(), func() { <-block }) }()
	// Wait until the blocker occupies the worker.
	for p.stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() { _ = p.do(context.Background(), func() { <-block }) }()
	for p.stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	// Worker busy + queue full: submission must fail fast with
	// ErrSaturated, not wait for a slot — queueing delay would hide the
	// saturation knee from load generators.
	err := p.do(context.Background(), func() {})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if httpStatus(err) != http.StatusTooManyRequests {
		t.Fatalf("saturation must map to 429, got %d", httpStatus(err))
	}
	if got := p.stats().Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	close(block)
}

func TestPoolSlowJobTimeout(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.close()
	block := make(chan struct{})
	defer close(block)
	// The job is accepted but never finishes within the deadline: the
	// caller's wait (not the submission) times out and maps to 504.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := p.do(ctx, func() { <-block })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if httpStatus(err) != http.StatusGatewayTimeout {
		t.Fatalf("timeout must map to 504, got %d", httpStatus(err))
	}
}

// TestHTTPSaturationReturns429 drives the full HTTP path into pool
// saturation: with the one worker and one queue slot pinned by blocking
// jobs, a transform must come back 429 with a Retry-After header, and
// the rejection must be visible in both /metrics representations.
func TestHTTPSaturationReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	block := make(chan struct{})
	defer close(block)
	// Pin the worker, then the queue slot.
	for i := 0; i < 2; i++ {
		go func() { _ = s.pool.do(context.Background(), func() { <-block }) }()
	}
	for s.pool.stats().Active == 0 || s.pool.stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/fft", FFTRequest{
		TransformSpec: TransformSpec{Input: []Complex{{1, 0}, {0, 0}, {0, 0}, {0, 0}}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated transform status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}

	snap := s.MetricsSnapshot()
	if snap.Queue.Rejected == 0 {
		t.Fatalf("pool rejected counter = 0 after a 429: %+v", snap.Queue)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"fftd_pool_rejected_total", "fftd_pool_submitted_total"} {
		if !strings.Contains(buf.String(), family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
}

func TestPoolCloseRunsQueuedJobs(t *testing.T) {
	p := newWorkerPool(1, 8)
	block := make(chan struct{})
	var mu sync.Mutex
	ran := 0
	done := make(chan error, 5)
	go func() { done <- p.do(context.Background(), func() { <-block }) }()
	for p.stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		go func() {
			done <- p.do(context.Background(), func() {
				mu.Lock()
				ran++
				mu.Unlock()
			})
		}()
	}
	for p.stats().Queued < 4 {
		time.Sleep(time.Millisecond)
	}
	close(block)
	p.close()
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if ran != 4 {
		t.Fatalf("queued jobs run = %d, want 4 (drain must not drop queued work)", ran)
	}
}

// ---- coalescing ----

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	type out struct {
		val    any
		shared bool
	}
	results := make(chan out, 3)
	go func() {
		v, shared, _ := g.do("k", func() (any, error) {
			close(leaderIn)
			<-release
			return 42, nil
		})
		results <- out{v, shared}
	}()
	<-leaderIn
	for i := 0; i < 2; i++ {
		go func() {
			v, shared, _ := g.do("k", func() (any, error) { return 42, nil })
			results <- out{v, shared}
		}()
	}
	// Followers are registered once they block; give them a beat.
	time.Sleep(10 * time.Millisecond)
	close(release)
	sharedCount := 0
	for i := 0; i < 3; i++ {
		r := <-results
		if r.val != 42 {
			t.Fatalf("val = %v", r.val)
		}
		if r.shared {
			sharedCount++
		}
	}
	if sharedCount != 2 {
		t.Fatalf("shared = %d, want 2", sharedCount)
	}
	// Different keys never coalesce.
	_, shared, _ := g.do("other", func() (any, error) { return 1, nil })
	if shared {
		t.Fatal("fresh key reported shared")
	}
}

// ---- HTTP handlers ----

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// drainClose reads resp's body to EOF, then closes it. EOF arrives only
// after the handler, its middleware included, has returned: a test that
// closes the body unread and then asserts a middleware side effect
// (slow-trace capture, request metrics) races the deferred capture.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// toComplex converts wire samples back to complex128 for comparisons.
func toComplex(pairs []Complex) []complex128 {
	out := make([]complex128, len(pairs))
	for i, p := range pairs {
		out[i] = complex(p[0], p[1])
	}
	return out
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFFTSingleMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(7))
	const n = 64
	in := make([]Complex, n)
	x := make([]complex128, n)
	for i := range in {
		re, im := rng.NormFloat64(), rng.NormFloat64()
		in[i] = Complex{re, im}
		x[i] = complex(re, im)
	}
	resp := postJSON(t, ts.URL+"/v1/fft", FFTRequest{TransformSpec: TransformSpec{Input: in}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[FFTResponse](t, resp)
	if body.Batch != 1 || len(body.Results) != 1 {
		t.Fatalf("batch shape: %+v", body)
	}
	want := fft.MustPlan(n).Forward(x)
	got := toComplex(body.Results[0].Output)
	if d := fft.MaxAbsDiff(got, want); d > 1e-12 {
		t.Fatalf("server FFT differs from direct by %g", d)
	}
}

func TestFFTRealAndInverse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Real input: n/2+1 bins matching RealPlan.
	real := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	resp := postJSON(t, ts.URL+"/v1/fft", FFTRequest{TransformSpec: TransformSpec{RealInput: real}})
	body := decode[FFTResponse](t, resp)
	if body.Results[0].Error != "" {
		t.Fatalf("real transform error: %s", body.Results[0].Error)
	}
	rp, _ := fft.NewRealPlan(8)
	want := rp.Forward(real)
	if len(body.Results[0].Output) != len(want) {
		t.Fatalf("real spectrum bins = %d, want %d", len(body.Results[0].Output), len(want))
	}
	// Inverse round trip: ifft(fft(x)) == x.
	x := []Complex{{1, 0}, {2, 0}, {3, 0}, {4, 0}}
	fwd := decode[FFTResponse](t, postJSON(t, ts.URL+"/v1/fft", FFTRequest{TransformSpec: TransformSpec{Input: x}}))
	inv := decode[FFTResponse](t, postJSON(t, ts.URL+"/v1/fft",
		FFTRequest{TransformSpec: TransformSpec{Input: fwd.Results[0].Output, Inverse: true}}))
	for i, c := range inv.Results[0].Output {
		if math.Abs(c[0]-x[i][0]) > 1e-12 || math.Abs(c[1]) > 1e-12 {
			t.Fatalf("round trip bin %d = %v, want %v", i, c, x[i])
		}
	}
}

func TestFFTBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"empty", FFTRequest{}, http.StatusOK}, // per-transform error, batch succeeds
		{"not json", "nope", http.StatusBadRequest},
		{"batch too big", FFTRequest{Transforms: make([]TransformSpec, 5)}, http.StatusBadRequest},
	}
	for _, c := range cases {
		var resp *http.Response
		if s, ok := c.body.(string); ok {
			r, err := testClient.Post(ts.URL+"/v1/fft", "application/json", strings.NewReader(s))
			if err != nil {
				t.Fatal(err)
			}
			resp = r
		} else {
			resp = postJSON(t, ts.URL+"/v1/fft", c.body)
		}
		if resp.StatusCode != c.want {
			t.Fatalf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}
	// Non-power-of-two complex lengths are served (Bluestein), so the
	// remaining per-transform rejections are real-domain shape errors:
	// real_input must be a power of two, and real_input+inverse must be
	// refused — never silently answered with a forward spectrum.
	resp := postJSON(t, ts.URL+"/v1/fft",
		FFTRequest{TransformSpec: TransformSpec{RealInput: []float64{1, 2, 3}}})
	body := decode[FFTResponse](t, resp)
	if body.Results[0].Error == "" {
		t.Fatal("length-3 real transform must carry an error")
	}
	resp = postJSON(t, ts.URL+"/v1/fft",
		FFTRequest{TransformSpec: TransformSpec{RealInput: []float64{1, 2, 3, 4}, Inverse: true}})
	body = decode[FFTResponse](t, resp)
	if body.Results[0].Error == "" {
		t.Fatal("real_input with inverse must carry an error")
	}
}

func TestSimulateFFTScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Network: "hypermesh", N: 64, Scenario: "fft", Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[SimulateResponse](t, resp)
	// Hypermesh FFT: log N butterfly steps + <= 3 reversal steps (the
	// paper's Table 2A hypermesh row).
	if body.ButterflySteps != 6 {
		t.Fatalf("butterfly steps = %d, want 6", body.ButterflySteps)
	}
	if body.BitReversalSteps > 3 {
		t.Fatalf("bit-reversal steps = %d, want <= 3", body.BitReversalSteps)
	}
	if body.MaxError > 1e-9 {
		t.Fatalf("simulated FFT error %g", body.MaxError)
	}
	if body.Table == nil || body.Table.Rows() == 0 {
		t.Fatal("response table missing")
	}
}

// TestSimulateRooflineInvariant asserts the fft scenario reports the
// communication roofline and that the ratio is ≥ 1 and identical on
// every network the endpoint serves — the word count underlying it is
// topology-invariant, so only the step costs may differ.
func TestSimulateRooflineInvariant(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var first *SimulateResponse
	for _, network := range []string{"mesh", "hypercube", "hypermesh"} {
		resp := postJSON(t, ts.URL+"/v1/simulate",
			SimulateRequest{Network: network, N: 64, Scenario: "fft", Seed: 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", network, resp.StatusCode)
		}
		body := decode[SimulateResponse](t, resp)
		if body.CommRooflineRatio < 1.0 {
			t.Errorf("%s comm_roofline_ratio = %v, want >= 1.0", network, body.CommRooflineRatio)
		}
		if body.CommBytes <= 0 || body.CommFloorBytes <= 0 {
			t.Errorf("%s comm bytes %d / floor %d, want both > 0", network, body.CommBytes, body.CommFloorBytes)
		}
		if first == nil {
			first = &body
			continue
		}
		//fftlint:ignore floatcmp identical word counts divide by the identical floor; bit-equality pins topology invariance
		if body.CommBytes != first.CommBytes || body.CommRooflineRatio != first.CommRooflineRatio {
			t.Errorf("%s reports bytes=%d ratio=%v, first network bytes=%d ratio=%v — must be invariant",
				network, body.CommBytes, body.CommRooflineRatio, first.CommBytes, first.CommRooflineRatio)
		}
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSimNodes: 1024})
	for _, req := range []SimulateRequest{
		{Network: "ring", N: 64, Scenario: "fft"},
		{Network: "mesh", N: 8, Scenario: "fft"},      // not a square
		{Network: "mesh", N: 4096, Scenario: "fft"},   // over MaxSimNodes
		{Network: "mesh", N: 64, Scenario: "warp9"},   // unknown scenario
		{Network: "hypercube", N: 3, Scenario: "fft"}, // not a power of two
	} {
		resp := postJSON(t, ts.URL+"/v1/simulate", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: status = %d, want 400", req, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestSimulateCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/v1/simulate",
				SimulateRequest{Network: "hypercube", N: 1024, Scenario: "fft", Seed: 11})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	snap := s.MetricsSnapshot()
	// Every request either executed a simulation or shared one: the two
	// counters partition the client count exactly.
	if snap.Simulations+snap.Coalesced != clients {
		t.Fatalf("simulations %d + coalesced %d != %d clients",
			snap.Simulations, snap.Coalesced, clients)
	}
}

func TestCompareTables(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := testClient.Get(ts.URL + "/v1/compare?n=4096")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[CompareResponse](t, resp)
	if len(body.Table2A) != 3 {
		t.Fatalf("table 2a rows = %d, want 3", len(body.Table2A))
	}
	// The paper's hypermesh row: total <= log N + 3 = 15 at N = 4096.
	for _, row := range body.Table2A {
		if row.Network == "2D Hypermesh" && row.Steps.Total() > 15 {
			t.Fatalf("hypermesh total steps = %d, want <= 15", row.Steps.Total())
		}
	}
	if len(body.Table2B) != 3 || len(body.Bisection) != 3 {
		t.Fatalf("missing tables: %+v", body)
	}
	// Single table selection.
	resp, err = testClient.Get(ts.URL + "/v1/compare?n=1024&table=2a")
	if err != nil {
		t.Fatal(err)
	}
	only := decode[CompareResponse](t, resp)
	if len(only.Table2A) == 0 || len(only.Table2B) != 0 {
		t.Fatalf("table=2a must return only 2a: %+v", only)
	}
	// Errors: bad n, bad table.
	for _, q := range []string{"?n=oops", "?table=9z", "?n=100"} {
		resp, err := testClient.Get(ts.URL + "/v1/compare" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := testClient.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decode[HealthResponse](t, resp); h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
	// Generate some traffic, then read the counters.
	postJSON(t, ts.URL+"/v1/fft",
		FFTRequest{TransformSpec: TransformSpec{Input: []Complex{{1, 0}, {2, 0}}}}).Body.Close()
	resp, err = testClient.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decode[Snapshot](t, resp)
	if snap.Requests["POST /v1/fft"] != 1 {
		t.Fatalf("fft request counter = %d, want 1", snap.Requests["POST /v1/fft"])
	}
	if snap.Requests["GET /healthz"] != 1 {
		t.Fatalf("healthz counter = %d", snap.Requests["GET /healthz"])
	}
	if snap.Transforms != 1 {
		t.Fatalf("transforms = %d, want 1", snap.Transforms)
	}
	if snap.PlanCache.Misses == 0 {
		t.Fatal("plan cache misses = 0 after first transform")
	}
	if snap.Queue.Workers == 0 || snap.Queue.Capacity == 0 {
		t.Fatalf("queue stats empty: %+v", snap.Queue)
	}
	if snap.Latency.Count == 0 {
		t.Fatal("latency histogram empty")
	}
}

func TestHandlerPanicBecomes500(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	s.route("GET /test/panic", func(w http.ResponseWriter, _ *http.Request) {
		panic("handler exploded")
	}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := testClient.Get(ts.URL + "/test/panic")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "handler exploded") {
		t.Fatalf("panic message lost: %+v", body)
	}
	// The daemon survived and 5xx was counted.
	if s.MetricsSnapshot().Responses["5xx"] != 1 {
		t.Fatal("5xx not counted")
	}
}

func TestWorkerPanicBecomes500(t *testing.T) {
	// A panic inside pool work (not the handler goroutine) must also
	// surface as a 500 — this is the daemon-survival property of the
	// panic-recovery design.
	s := New(Config{})
	defer s.Close()
	s.route("GET /test/worker-panic", func(w http.ResponseWriter, r *http.Request) {
		err := s.pool.do(r.Context(), func() { panic("worker exploded") })
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, HealthResponse{Status: "unreachable"})
	}, false)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, err := testClient.Get(ts.URL + "/test/worker-panic")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status = %d, want 500", resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Workers survived three panics; normal work still completes.
	resp, err := testClient.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal("daemon unhealthy after worker panics")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := testClient.Get(ts.URL + "/v1/fft")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/fft status = %d, want 405", resp.StatusCode)
	}
}
