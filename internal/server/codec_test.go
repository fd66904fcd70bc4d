package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fft"
)

// sameBits fails unless got carries exactly the float64 bits of want.
func sameBits(t *testing.T, label string, got []Complex, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", label, len(got), len(want))
	}
	for i, g := range got {
		if math.Float64bits(g[0]) != math.Float64bits(real(want[i])) ||
			math.Float64bits(g[1]) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s sample %d: %v, the plan gives %v", label, i, g, want[i])
		}
	}
}

// TestServedBitsMatchPlans — every /v1/fft and /v1/fft2d answer decodes
// to exactly the float64 bits fft.Plan, AnyPlan, RealPlan, Plan2D and
// Plan3D produce on the same input: request decoding, the kernel path
// and response encoding together lose nothing.
func TestServedBitsMatchPlans(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 8, 64, 1024, 12, 1000} {
		for _, inverse := range []bool{false, true} {
			in := make([]Complex, n)
			x := make([]complex128, n)
			for i := range in {
				in[i] = Complex{rng.NormFloat64(), rng.NormFloat64()}
				x[i] = complex(in[i][0], in[i][1])
			}
			want := make([]complex128, n)
			if p, err := fft.NewPlan(n); err == nil {
				if inverse {
					p.Inverse(want, x)
				} else {
					p.Transform(want, x)
				}
			} else {
				p, err := fft.NewAnyPlan(n)
				if err != nil {
					t.Fatal(err)
				}
				if inverse {
					p.Inverse(want, x)
				} else {
					p.Transform(want, x)
				}
			}
			body := decode[FFTResponse](t, postJSON(t, ts.URL+"/v1/fft",
				FFTRequest{TransformSpec: TransformSpec{Input: in, Inverse: inverse}}))
			if len(body.Results) != 1 || body.Results[0].Error != "" {
				t.Fatalf("n=%d inverse=%v: %+v", n, inverse, body.Results)
			}
			sameBits(t, fmt.Sprintf("n=%d inverse=%v", n, inverse), body.Results[0].Output, want)
		}
	}

	signal := make([]float64, 256)
	for i := range signal {
		signal[i] = rng.NormFloat64()
	}
	rp, err := fft.NewRealPlan(len(signal))
	if err != nil {
		t.Fatal(err)
	}
	body := decode[FFTResponse](t, postJSON(t, ts.URL+"/v1/fft",
		FFTRequest{TransformSpec: TransformSpec{RealInput: signal}}))
	if len(body.Results) != 1 || body.Results[0].Error != "" {
		t.Fatalf("real n=256: %+v", body.Results)
	}
	sameBits(t, "real n=256", body.Results[0].Output, rp.Forward(signal))

	for _, sh := range []struct{ rows, cols, depth int }{{64, 64, 0}, {8, 16, 0}, {6, 10, 0}, {4, 4, 2}} {
		in, want := fft2dInput(t, sh.rows, sh.cols, sh.depth, false, int64(sh.rows*sh.cols))
		got := decode[FFT2DResponse](t, postJSON(t, ts.URL+"/v1/fft2d",
			FFT2DRequest{Rows: sh.rows, Cols: sh.cols, Depth: sh.depth, Input: in}))
		sameBits(t, fmt.Sprintf("%dx%dx%d", sh.rows, sh.cols, sh.depth), got.Output, want)
	}
}

// TestOverflowIsAnError — finite inputs whose transform overflows
// float64 produce ±Inf, which JSON cannot carry. The overflow is the
// transform's own error on /v1/fft, where the rest of the batch stands,
// and a 400 on /v1/fft2d — never a 200 with an empty body.
func TestOverflowIsAnError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"input":[[1e308,0],[1e308,0]]}`,
		`{"real_input":[1e308,1e308]}`,
	} {
		resp := postBody(t, ts.URL+"/v1/fft", body)
		got := decode[FFTResponse](t, resp)
		if resp.StatusCode != http.StatusOK || len(got.Results) != 1 {
			t.Fatalf("%s: status %d, %+v", body, resp.StatusCode, got)
		}
		if r := got.Results[0]; !strings.Contains(r.Error, "overflows float64") || len(r.Output) != 0 {
			t.Fatalf("%s: result %+v, want an overflow error and no output", body, r)
		}
	}

	resp := postBody(t, ts.URL+"/v1/fft", `{"transforms":[{"input":[[1e308,0],[1e308,0]]},{"input":[[1,0],[2,0]]}]}`)
	got := decode[FFTResponse](t, resp)
	if resp.StatusCode != http.StatusOK || len(got.Results) != 2 {
		t.Fatalf("batch: status %d, %+v", resp.StatusCode, got)
	}
	if got.Results[0].Error == "" || got.Results[1].Error != "" {
		t.Fatalf("batch: results %+v, want only the first to fail", got.Results)
	}
	sameBits(t, "batch survivor", got.Results[1].Output, []complex128{3, -1})

	resp = postBody(t, ts.URL+"/v1/fft2d", `{"rows":1,"cols":2,"input":[[1e308,0],[1e308,0]]}`)
	eb := decode[errorBody](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "overflows float64") {
		t.Fatalf("fft2d: status %d, %+v", resp.StatusCode, eb)
	}
}

// TestWriteJSONMarshalFailure — a value encoding/json cannot marshal
// is a 500 with a JSON error body, never a 200 with an empty one.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"x": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != http.StatusInternalServerError || eb.Error == "" {
		t.Fatalf("body %q (%v), want a JSON error body", rec.Body.String(), err)
	}
}

// TestResponsesAreCompact — responses carry no indentation.
func TestResponsesAreCompact(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []struct{ route, body string }{
		{"/v1/fft", `{"input":[[1,0],[2,0],[3,0],[4,0]]}`},
		{"/v1/fft", `{"input":[[1]]}`},
		{"/v1/fft2d", `{"rows":2,"cols":2,"input":[[1,0],[2,0],[3,0],[4,0]]}`},
	} {
		resp := postBody(t, ts.URL+req.route, req.body)
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("\n ")) || !bytes.HasSuffix(data, []byte("}\n")) {
			t.Fatalf("%s %s: body is not one compact line: %q", req.route, req.body, data)
		}
	}
}

// TestStrictSamplesOverHTTP — a sample that is not exactly
// [number, number] is a 400 naming the sample.
func TestStrictSamplesOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for route, body := range map[string]string{
		"/v1/fft":   `{"input":[[1,0],[2,0,0]]}`,
		"/v1/fft2d": `{"rows":1,"cols":2,"input":[[1,0],null]}`,
	} {
		resp := postBody(t, ts.URL+route, body)
		eb := decode[errorBody](t, resp)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "input sample 1") {
			t.Fatalf("%s: status %d, %+v", route, resp.StatusCode, eb)
		}
	}
}

// TestSimulateBodyLimit413 — /v1/simulate reads its body through a
// cap sized for SimulateRequest's few scalars: past it is a 413, as on
// the transform routes.
func TestSimulateBodyLimit413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"network":"` + strings.Repeat("a", maxSimulateBodyBytes) + `","n":64}`
	resp := postBody(t, ts.URL+"/v1/simulate", body)
	eb := decode[errorBody](t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(eb.Error, "exceeds") {
		t.Fatalf("status %d, %+v; want 413", resp.StatusCode, eb)
	}
	resp = postBody(t, ts.URL+"/v1/simulate", `{"network":"hypercube","n":64,"scenario":"fft"}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-cap simulate: status %d", resp.StatusCode)
	}
}

// TestQueuedJobOwnsRequestBuffer — a request that times out while its
// job waits in the pool's queue returns first; the job runs later and
// still reads its samples from the request's pooled buffer, so the
// buffer must stay the job's until it has run. Each valid real-inverse
// request here is followed by one whose DC bin is invalid: had a
// handler returned its buffer to the pool on timeout, the next request
// would decode into it and the queued valid job would read the invalid
// spectrum and fail.
func TestQueuedJobOwnsRequestBuffer(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16, RequestTimeout: 20 * time.Millisecond})
	block := make(chan struct{})
	go func() { _ = s.pool.do(context.Background(), func() { <-block }) }()
	for s.pool.stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}
	const valid = 4
	for i := 0; i < valid; i++ {
		for _, body := range []string{
			`{"real_inverse":[[10,0],[-2,2],[-2,0]]}`,
			`{"real_inverse":[[10,5],[-2,2],[-2,0]]}`,
		} {
			resp := postBody(t, ts.URL+"/v1/fft", body)
			drainClose(resp)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504 while the worker is pinned", resp.StatusCode)
			}
		}
	}
	close(block)
	for st := s.pool.stats(); st.Queued > 0 || st.Active > 0; st = s.pool.stats() {
		time.Sleep(time.Millisecond)
	}
	if got := s.metrics.transforms.Load(); got != valid {
		t.Fatalf("%d queued transforms succeeded, want the %d valid ones", got, valid)
	}
}
