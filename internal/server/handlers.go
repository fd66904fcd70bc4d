package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/fft"
	"repro/internal/hardware"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/roofline"
	"repro/internal/parfft"
	"repro/internal/perfmodel"
	"repro/internal/permute"
	"repro/internal/report"
)

// ---- /v1/fft ----

// Complex is the wire form of one complex sample: [re, im].
type Complex [2]float64

func fromComplex(xs []complex128) []Complex {
	out := make([]Complex, len(xs))
	for i, x := range xs {
		out[i] = Complex{real(x), imag(x)}
	}
	return out
}

// TransformSpec is one transform of a /v1/fft request. Exactly one of
// Input (complex samples), RealInput or RealInverse must be set.
type TransformSpec struct {
	// Input holds complex samples as [re, im] pairs. Any length n >= 1
	// is accepted: powers of two run the split-radix kernel, other
	// lengths Bluestein's algorithm.
	Input []Complex `json:"input,omitempty"`
	// RealInput holds real samples (length a power of two); the
	// response carries the n/2+1 non-redundant spectrum bins.
	RealInput []float64 `json:"real_input,omitempty"`
	// RealInverse holds the n/2+1 half-spectrum bins of a real signal
	// and requests the inverse real transform: the response carries the
	// n real samples (as [re, 0] pairs). The DC and Nyquist bins must
	// be real-valued — a spectrum of a real signal has no imaginary
	// part there — and the request is rejected otherwise. Setting
	// Inverse alongside RealInput is an error, never a forward
	// spectrum.
	RealInverse []Complex `json:"real_inverse,omitempty"`
	// Inverse requests the inverse transform (complex input only;
	// real inverses use RealInverse).
	Inverse bool `json:"inverse,omitempty"`
	// NoReorder skips the terminal bit-reversal, leaving the spectrum
	// in bit-reversed order (§IV.A's "if the bit-reversal is not
	// needed" pipeline; forward complex power-of-two only).
	NoReorder bool `json:"no_reorder,omitempty"`
}

// FFTRequest is the /v1/fft body: either a single transform (inline
// fields) or a batch (Transforms).
type FFTRequest struct {
	TransformSpec
	Transforms []TransformSpec `json:"transforms,omitempty"`
}

// TransformResult is one transform's response. A per-transform failure
// sets Error and leaves Output empty; the batch itself still succeeds.
type TransformResult struct {
	N      int       `json:"n"`
	Output []Complex `json:"output,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// FFTResponse is the /v1/fft response.
type FFTResponse struct {
	Batch   int               `json:"batch"`
	Results []TransformResult `json:"results"`
}

// executeOp runs one validated transform op against the shared plan
// cache. It is the single local execution path: runTransform reaches it
// for single-node serving and self-owned shards, and ClusterExecutor
// exposes it to peers for forwarded RPCs — which is what makes cluster
// results bit-identical to single-node results. A non-nil dst with
// sufficient capacity is reused for complex output (the HTTP path
// passes pooled scratch); forwarded RPCs pass nil and the result is
// serialized before the buffer would be reused.
//
// Complex transforms accept any length n >= 1: powers of two take the
// split-radix plan, everything else the cached Bluestein AnyPlan.
// NoReorder is the one power-of-two-only option — bit-reversed order
// is undefined for other lengths. Real ops are power-of-two-only (the
// packed half transform needs it) and a real op with Inverse set is a
// genuine real inverse: its Input carries the n/2+1 half-spectrum and
// the result is the real signal, widened to complex for the uniform
// response shape. It is never silently answered with a forward
// spectrum.
func (s *Server) executeOp(_ context.Context, op *wire.TransformOp, dst []complex128) ([]complex128, error) {
	n := op.N()
	if err := s.checkLen(n); err != nil {
		return nil, err
	}
	sized := func(m int) []complex128 {
		if cap(dst) >= m {
			return dst[:m]
		}
		return make([]complex128, m)
	}
	if op.Real {
		if op.NoReorder {
			return nil, badRequest("no_reorder applies to forward complex transforms only")
		}
		p, err := s.cache.RealPlan(n)
		if err != nil {
			return nil, badRequest("real plan: %v", err)
		}
		if op.Inverse {
			if err := p.ValidateSpectrum(op.Input); err != nil {
				return nil, badRequest("real inverse: %v", err)
			}
			rb := getRBuf(n)
			defer putRBuf(rb)
			p.InverseInto(rb.x, op.Input)
			out := sized(n)
			for i, v := range rb.x {
				out[i] = complex(v, 0)
			}
			return out, nil
		}
		return p.ForwardInto(sized(p.SpectrumLen()), op.RealInput), nil
	}
	if !bits.IsPow2(n) {
		if op.NoReorder {
			return nil, badRequest("no_reorder requires a power-of-two length, got %d", n)
		}
		p, err := s.cache.AnyPlan(n)
		if err != nil {
			return nil, badRequest("plan: %v", err)
		}
		out := sized(n)
		if op.Inverse {
			p.Inverse(out, op.Input)
		} else {
			p.Transform(out, op.Input)
		}
		return out, nil
	}
	p, err := s.cache.ComplexPlan(n)
	if err != nil {
		return nil, badRequest("plan: %v", err)
	}
	out := sized(n)
	switch {
	case op.Inverse:
		p.Inverse(out, op.Input)
	case op.NoReorder:
		p.TransformNoReorder(out, op.Input)
	default:
		p.Transform(out, op.Input)
	}
	return out, nil
}

// runTransform executes one decoded transform: validation, then either
// the local plan-cache path or — when a cluster client is installed —
// the consistent-hash ring, which may forward the op to the peer owning
// its shape. The input samples are read in place from the request's
// pooled buffer. The span (traced requests only) carries the transform
// kind and size; untraced requests get the nil-span no-op path, keeping
// the plancache-hit serving path allocation-free.
func (s *Server) runTransform(ctx context.Context, t transform) (TransformResult, error) {
	sp := obs.StartChild(ctx, "transform").SetCat(obs.CatCompute)
	defer sp.End()
	populated := 0
	for _, set := range []bool{len(t.input) > 0, len(t.realInput) > 0, len(t.realInverse) > 0} {
		if set {
			populated++
		}
	}
	switch {
	case populated > 1:
		return TransformResult{}, badRequest("transform sets more than one of input, real_input and real_inverse")
	case len(t.realInverse) > 0:
		if t.inverse || t.noReorder {
			return TransformResult{}, badRequest("real_inverse is already the inverse; inverse/no_reorder do not apply")
		}
		h := len(t.realInverse)
		if h < 2 {
			return TransformResult{}, badRequest("real_inverse needs at least 2 spectrum bins (n/2+1 for signal length n)")
		}
		n := 2 * (h - 1)
		if sp != nil {
			sp.SetDetail(fmt.Sprintf("real-inverse n=%d", n))
		}
		op := wire.TransformOp{Real: true, Inverse: true, Input: t.realInverse}
		return s.finishOp(ctx, &op, n)
	case len(t.realInput) > 0:
		if t.inverse {
			return TransformResult{}, badRequest("real_input with inverse is invalid: a real inverse takes the half-spectrum, not samples — pass the n/2+1 bins as real_inverse")
		}
		if t.noReorder {
			return TransformResult{}, badRequest("no_reorder applies to complex input only")
		}
		n := len(t.realInput)
		if sp != nil {
			sp.SetDetail(fmt.Sprintf("real n=%d", n))
		}
		op := wire.TransformOp{Real: true, RealInput: t.realInput}
		return s.finishOp(ctx, &op, n)
	case len(t.input) > 0:
		if t.inverse && t.noReorder {
			return TransformResult{}, badRequest("inverse and no_reorder are mutually exclusive")
		}
		n := len(t.input)
		if sp != nil {
			sp.SetDetail(fmt.Sprintf("complex n=%d inverse=%v", n, t.inverse))
		}
		op := wire.TransformOp{Inverse: t.inverse, NoReorder: t.noReorder, Input: t.input}
		return s.finishOp(ctx, &op, n)
	default:
		return TransformResult{}, badRequest("transform has no input or real_input")
	}
}

// finishOp dispatches op, whose signal length is n, with pooled output
// scratch and renders the result for the response. Finite inputs near
// ±MaxFloat64 can overflow to ±Inf or NaN, which JSON cannot carry:
// such an output is this transform's error, not a response the encoder
// would fail on.
func (s *Server) finishOp(ctx context.Context, op *wire.TransformOp, n int) (TransformResult, error) {
	b := getCBuf(n)
	defer putCBuf(b)
	out, err := s.dispatchOp(ctx, op, b.x)
	if err != nil {
		return TransformResult{}, err
	}
	if err := checkFinite(out); err != nil {
		return TransformResult{}, err
	}
	return TransformResult{N: n, Output: fromComplex(out)}, nil
}

// checkFinite rejects an output holding an infinite or NaN sample.
func checkFinite(xs []complex128) error {
	for i, x := range xs {
		if math.IsInf(real(x), 0) || math.IsNaN(real(x)) || math.IsInf(imag(x), 0) || math.IsNaN(imag(x)) {
			return badRequest("output sample %d is %v: the transform overflows float64; scale the input down", i, x)
		}
	}
	return nil
}

// dispatchOp routes one op: through the cluster client when installed
// (the client short-circuits self-owned shapes back to executeOp via
// ClusterExecutor), directly to executeOp otherwise. A peer's
// application-level rejection comes back as a RemoteError and maps to
// 400 — the peer runs the same validation this node would.
func (s *Server) dispatchOp(ctx context.Context, op *wire.TransformOp, dst []complex128) ([]complex128, error) {
	if s.cluster == nil {
		return s.executeOp(ctx, op, dst)
	}
	out, err := s.cluster.Transform(ctx, op)
	if err != nil {
		var remote *cluster.RemoteError
		if errors.As(err, &remote) {
			return nil, badRequest("%s", remote.Msg)
		}
		return nil, err
	}
	return out, nil
}

// checkLen validates a transform length against the configured bound
// (shape validation — power of two where required — is the plan
// constructor's job). A non-positive length means a malformed op, e.g.
// a real inverse whose spectrum payload is too short to name a signal.
func (s *Server) checkLen(n int) error {
	if n < 1 {
		return badRequest("transform length %d must be at least 1", n)
	}
	if n > s.cfg.MaxTransformLen {
		return badRequest("transform length %d exceeds limit %d", n, s.cfg.MaxTransformLen)
	}
	return nil
}

// handleFFT serves single and batch transforms. Each transform of a
// batch is an independent worker-pool job, so a batch fans out across
// the pool and large batches get the pool's backpressure.
func (s *Server) handleFFT(w http.ResponseWriter, r *http.Request) {
	buf, top, err := s.readFFT(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	specs := buf.specs
	if len(specs) == 0 {
		specs = []specSpans{top}
	}
	if len(specs) > s.cfg.MaxBatch {
		buf.release()
		writeError(w, badRequest("batch of %d exceeds limit %d", len(specs), s.cfg.MaxBatch))
		return
	}

	// Every job reads its samples from buf and releases its reference
	// when done; a job the pool never queued is released here instead.
	buf.share(len(specs))
	results := make([]TransformResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := buf.transform(specs[i])
			errs[i] = s.pool.do(r.Context(), func() {
				defer buf.release()
				res, err := s.runTransform(r.Context(), t)
				if err != nil {
					res = TransformResult{Error: err.Error()}
				} else {
					s.metrics.transforms.Add(1)
				}
				results[i] = res
			})
			if notQueued(errs[i]) {
				buf.release()
			}
		}(i)
	}
	wg.Wait()

	// Pool-level failures (drain, timeout, worker panic) fail the whole
	// request: the batch result would otherwise silently hold holes.
	for _, err := range errs {
		if err != nil {
			if errors.Is(err, ErrDraining) {
				s.metrics.drained.Add(1)
			}
			writeError(w, err)
			return
		}
	}
	writeJSON(w, FFTResponse{Batch: len(specs), Results: results})
}

// ---- /v1/simulate ----

// SimulateRequest selects one word-level simulation scenario, the
// service form of `cmd/netsim`.
type SimulateRequest struct {
	// Network is mesh, hypercube or hypermesh.
	Network string `json:"network"`
	// N is the node (and element) count; a power of two, and a perfect
	// square for mesh/hypermesh.
	N int `json:"n"`
	// Wrap selects torus links on the mesh; nil means true.
	Wrap *bool `json:"wrap,omitempty"`
	// Scenario is fft, bitreversal, random or traffic.
	Scenario string `json:"scenario"`
	// Seed drives the scenario's RNG; same seed, same result.
	Seed int64 `json:"seed,omitempty"`
	// SkipBitReversal drops the FFT's terminal reversal (fft only).
	SkipBitReversal bool `json:"skip_bit_reversal,omitempty"`
}

// normalize fills defaults and returns the coalescing key: simulations
// are deterministic functions of the normalized request, so identical
// concurrent queries share one execution.
func (r SimulateRequest) normalize() (SimulateRequest, string) {
	if r.Network == "" {
		r.Network = "hypermesh"
	}
	if r.Scenario == "" {
		r.Scenario = "fft"
	}
	if r.Wrap == nil {
		t := true
		r.Wrap = &t
	}
	key := fmt.Sprintf("simulate|%s|%d|%v|%s|%d|%v",
		r.Network, r.N, *r.Wrap, r.Scenario, r.Seed, r.SkipBitReversal)
	return r, key
}

// SimulateResponse reports one simulation run.
type SimulateResponse struct {
	Network  string `json:"network"`
	Machine  string `json:"machine"`
	N        int    `json:"n"`
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`

	// FFT scenario fields.
	ButterflySteps   int     `json:"butterfly_steps,omitempty"`
	BitReversalSteps int     `json:"bit_reversal_steps,omitempty"`
	ComputeSteps     int     `json:"compute_steps,omitempty"`
	MaxError         float64 `json:"max_error,omitempty"`

	// Routing scenario fields.
	RouteSteps int `json:"route_steps,omitempty"`

	// Traffic scenario fields.
	DeliveredRate float64 `json:"delivered_rate,omitempty"`
	AvgLatency    float64 `json:"avg_latency,omitempty"`

	// Communication-roofline fields (fft scenario): simulated payload
	// volume, the BSP lower bound for the same butterfly, and
	// achieved/optimal — identical across networks for one schedule
	// because the word count is topology-invariant (netsim.Stats.Words).
	CommBytes         int64   `json:"comm_bytes,omitempty"`
	CommFloorBytes    int64   `json:"comm_floor_bytes,omitempty"`
	CommRooflineRatio float64 `json:"comm_roofline_ratio,omitempty"`

	TotalSteps int          `json:"total_steps"`
	Stats      netsim.Stats `json:"stats"`

	// Table is the same report rendered by the CLI, machine-readable.
	Table *report.Table `json:"table,omitempty"`

	// Coalesced is true when this response was produced by another
	// identical in-flight request.
	Coalesced bool `json:"coalesced,omitempty"`
}

// buildMachine constructs the simulated machine for a request. A
// non-nil tracer attaches machine-operation spans to the request's
// span tree.
func buildMachine(network string, n int, wrap bool, tr *obs.Tracer) (netsim.Machine[complex128], error) {
	if !bits.IsPow2(n) || n < 4 {
		return nil, badRequest("n = %d must be a power of two >= 4", n)
	}
	cfg := netsim.Config{Obs: tr}
	switch network {
	case "mesh", "hypermesh":
		side := 1
		for side*side < n {
			side++
		}
		if side*side != n {
			return nil, badRequest("%s needs a square n, got %d", network, n)
		}
		if network == "mesh" {
			return netsim.NewMesh[complex128](side, wrap, cfg)
		}
		return netsim.NewHypermesh[complex128](side, 2, cfg)
	case "hypercube":
		return netsim.NewHypercube[complex128](bits.Log2(n), cfg)
	default:
		return nil, badRequest("unknown network %q", network)
	}
}

// runSimulation executes one scenario; it is the flight-group leader's
// workload and runs on the worker pool. The leader's tracer (when the
// request is traced) follows the machine down into netsim and parfft,
// so a slow simulation's capture shows per-rank and per-route spans.
func (s *Server) runSimulation(ctx context.Context, req SimulateRequest) (*SimulateResponse, error) {
	if req.N > s.cfg.MaxSimNodes {
		return nil, badRequest("n = %d exceeds simulation limit %d", req.N, s.cfg.MaxSimNodes)
	}
	tr := obs.FromContext(ctx)
	rng := rand.New(rand.NewSource(req.Seed))
	resp := &SimulateResponse{
		Network: req.Network, N: req.N, Scenario: req.Scenario, Seed: req.Seed,
	}
	switch req.Scenario {
	case "fft":
		m, err := buildMachine(req.Network, req.N, *req.Wrap, tr)
		if err != nil {
			return nil, err
		}
		x := make([]complex128, req.N)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		res, err := parfft.Run(m, x, parfft.Options{
			SkipBitReversal: req.SkipBitReversal,
			Plans:           s.cache.Source(),
			Tracer:          tr,
		})
		if err != nil {
			return nil, err
		}
		want := make([]complex128, req.N)
		plan, err := s.cache.ComplexPlan(req.N)
		if err != nil {
			return nil, err
		}
		if req.SkipBitReversal {
			plan.TransformNoReorder(want, x)
		} else {
			plan.Transform(want, x)
		}
		resp.Machine = m.Name()
		resp.ButterflySteps = res.ButterflySteps
		resp.BitReversalSteps = res.BitReversalSteps
		resp.ComputeSteps = res.ComputeSteps
		resp.TotalSteps = res.TotalSteps()
		resp.MaxError = fft.MaxAbsDiff(res.Output, want)
		resp.Stats = m.Stats()
		resp.CommBytes = resp.Stats.CommBytes()
		resp.CommFloorBytes = int64(roofline.ButterflyBytes(req.N, req.N, netsim.WordBytes))
		resp.CommRooflineRatio = netsim.CommRoofline(req.N, resp.Stats)
		t := report.New(fmt.Sprintf("%d-point distributed FFT on %s", req.N, m.Name()),
			"quantity", "value")
		t.MustAddRow("butterfly data-transfer steps", strconv.Itoa(res.ButterflySteps))
		t.MustAddRow("bit-reversal data-transfer steps", strconv.Itoa(res.BitReversalSteps))
		t.MustAddRow("total data-transfer steps", strconv.Itoa(res.TotalSteps()))
		t.MustAddRow("compute steps", strconv.Itoa(res.ComputeSteps))
		t.MustAddRow("max |error| vs serial FFT", fmt.Sprintf("%.3g", resp.MaxError))
		t.MustAddRow("comm roofline (achieved/optimal bytes)", fmt.Sprintf("%.2f", resp.CommRooflineRatio))
		resp.Table = t
		return resp, nil

	case "bitreversal", "random":
		m, err := buildMachine(req.Network, req.N, *req.Wrap, tr)
		if err != nil {
			return nil, err
		}
		var p permute.Permutation
		if req.Scenario == "bitreversal" {
			p = permute.BitReversal(req.N)
		} else {
			p = permute.Random(req.N, rng)
		}
		steps, err := m.Route(p)
		if err != nil {
			return nil, err
		}
		resp.Machine = m.Name()
		resp.RouteSteps = steps
		resp.TotalSteps = steps
		resp.Stats = m.Stats()
		t := report.New(fmt.Sprintf("%s permutation on %s (N = %d)", req.Scenario, m.Name(), req.N),
			"quantity", "value")
		t.MustAddRow("data-transfer steps (makespan)", strconv.Itoa(steps))
		t.MustAddRow("total link traversals", strconv.Itoa(resp.Stats.LinkTraversals))
		t.MustAddRow("max queue length", strconv.Itoa(resp.Stats.MaxQueue))
		resp.Table = t
		return resp, nil

	case "traffic":
		opts := netsim.TrafficOptions{Rate: 0.2, Warmup: 200, Measure: 800, Seed: req.Seed}
		var res *netsim.TrafficResult
		var err error
		side := 1
		for side*side < req.N {
			side++
		}
		switch req.Network {
		case "mesh":
			res, err = netsim.NewMeshTraffic(side, opts)
		case "hypercube":
			res, err = netsim.NewHypercubeTraffic(bits.Log2(req.N), opts)
		case "hypermesh":
			res, err = netsim.NewHypermeshTraffic(side, opts)
		default:
			return nil, badRequest("unknown network %q", req.Network)
		}
		if err != nil {
			return nil, badRequest("traffic: %v", err)
		}
		resp.Machine = req.Network
		resp.DeliveredRate = res.DeliveredRate
		resp.AvgLatency = res.AvgLatency
		resp.Stats = netsim.Stats{MaxQueue: res.MaxQueue}
		t := report.New(fmt.Sprintf("uniform random traffic on %s (N = %d)", req.Network, req.N),
			"quantity", "value")
		t.MustAddRow("delivered rate (pkts/node/step)", fmt.Sprintf("%.3f", res.DeliveredRate))
		t.MustAddRow("average latency (steps)", fmt.Sprintf("%.2f", res.AvgLatency))
		t.MustAddRow("max queue", strconv.Itoa(res.MaxQueue))
		resp.Table = t
		return resp, nil

	default:
		return nil, badRequest("unknown scenario %q", req.Scenario)
	}
}

// maxSimulateBodyBytes caps a /v1/simulate body. SimulateRequest is a
// handful of scalars, well under a kilobyte even pretty-printed; a body
// past the cap is a 413, as on the transform routes.
const maxSimulateBodyBytes = 8 << 10

// handleSimulate coalesces identical queries, then runs the simulation
// on the worker pool under the request deadline.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxSimulateBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyError(err))
		return
	}
	req, key := req.normalize()
	v, shared, err := s.flights.do(key, func() (any, error) {
		var resp *SimulateResponse
		var runErr error
		if poolErr := s.pool.do(r.Context(), func() {
			resp, runErr = s.runSimulation(r.Context(), req)
		}); poolErr != nil {
			return nil, poolErr
		}
		if runErr == nil {
			s.metrics.simulations.Add(1)
		}
		return resp, runErr
	})
	if err != nil {
		if errors.Is(err, ErrDraining) {
			s.metrics.drained.Add(1)
		}
		writeError(w, err)
		return
	}
	if shared {
		s.metrics.coalesced.Add(1)
	}
	resp := *v.(*SimulateResponse)
	resp.Coalesced = shared
	writeJSON(w, resp)
}

// ---- /v1/compare ----

// CompareResponse carries the paper's comparison tables evaluated at
// one size: the JSON form of cmd/fftrepro's Table 1A/1B/2A/2B and §V
// bisection output.
type CompareResponse struct {
	N         int                      `json:"n"`
	Table1A   []perfmodel.Table1ARow   `json:"table_1a,omitempty"`
	Table1B   []perfmodel.Table1BRow   `json:"table_1b,omitempty"`
	Table2A   []perfmodel.Table2ARow   `json:"table_2a,omitempty"`
	Table2B   []perfmodel.Table2BRow   `json:"table_2b,omitempty"`
	Bisection []perfmodel.BisectionRow `json:"bisection,omitempty"`
	Coalesced bool                     `json:"coalesced,omitempty"`
}

// handleCompare serves GET /v1/compare?n=4096&table=2a (table defaults
// to all). Identical concurrent queries are coalesced.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	n := 4096
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, badRequest("n: %v", err))
			return
		}
		n = v
	}
	which := r.URL.Query().Get("table")
	if which == "" {
		which = "all"
	}
	key := fmt.Sprintf("compare|%d|%s", n, which)
	v, shared, err := s.flights.do(key, func() (any, error) {
		var resp *CompareResponse
		var runErr error
		if poolErr := s.pool.do(r.Context(), func() {
			resp, runErr = buildCompare(n, which)
		}); poolErr != nil {
			return nil, poolErr
		}
		return resp, runErr
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if shared {
		s.metrics.coalesced.Add(1)
	}
	resp := *v.(*CompareResponse)
	resp.Coalesced = shared
	writeJSON(w, resp)
}

// buildCompare evaluates the requested tables at size n.
func buildCompare(n int, which string) (*CompareResponse, error) {
	resp := &CompareResponse{N: n}
	want := func(t string) bool { return which == "all" || which == t }
	var err error
	wrap := func(table string, e error) error {
		if e == nil {
			return nil
		}
		return badRequest("table %s at n=%d: %v", table, n, e)
	}
	matched := false
	if want("1a") {
		matched = true
		if resp.Table1A, err = perfmodel.Table1A(n); err != nil {
			return nil, wrap("1a", err)
		}
	}
	if want("1b") {
		matched = true
		if resp.Table1B, err = perfmodel.Table1B(n, hardware.GaAs64); err != nil {
			return nil, wrap("1b", err)
		}
	}
	if want("2a") {
		matched = true
		if resp.Table2A, err = perfmodel.Table2A(n); err != nil {
			return nil, wrap("2a", err)
		}
	}
	if want("2b") {
		matched = true
		if resp.Table2B, err = perfmodel.Table2B(n, hardware.GaAs64, hardware.DefaultPacketBits); err != nil {
			return nil, wrap("2b", err)
		}
	}
	if want("bisection") {
		matched = true
		if resp.Bisection, err = perfmodel.BisectionTable(n, hardware.GaAs64); err != nil {
			return nil, wrap("bisection", err)
		}
	}
	if !matched {
		return nil, badRequest("unknown table %q (want 1a, 1b, 2a, 2b, bisection or all)", which)
	}
	return resp, nil
}

// ---- /healthz and /metrics ----

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, HealthResponse{Status: "ok"})
}

// handleReadyz reports readiness, as distinct from liveness: a 200
// while serving, a 503 once StartDrain has been called. Load balancers
// and cluster peers route on readiness; orchestrators restart on
// liveness — a draining process is alive but not ready.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSONStatus(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	writeJSON(w, HealthResponse{Status: "ready"})
}

// wantsPromText decides the /metrics representation from the Accept
// header: any explicit preference for a text or OpenMetrics form gets
// the Prometheus exposition; everything else (including no header and
// */*) keeps the original JSON body.
func wantsPromText(accept string) bool {
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.MetricsSnapshot()
	if wantsPromText(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.metrics.writePrometheus(w, snap)
		return
	}
	writeJSON(w, snap)
}

// handleSlow serves the slow-trace ring: the most recent captured
// request span trees (remote children included), newest first, plus the
// cluster's communication-roofline ratio when one is routing.
// ?format=chrome re-renders the same ring as Chrome trace_event JSON —
// every captured tree, remote children grafted in place, loadable
// directly in chrome://tracing or Perfetto.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	traces := s.slow.list()
	if r.URL.Query().Get("format") == "chrome" {
		// Each capture has its own tracer, so span IDs restart at 1 per
		// trace; offset them so the flattened set keeps distinct trees
		// (and therefore distinct tracks) in the viewer.
		var spans []obs.SpanData
		offset := 0
		for _, ct := range traces {
			maxID := 0
			for _, sp := range ct.Spans {
				sp.ID += offset
				if sp.Parent != 0 {
					sp.Parent += offset
				}
				if sp.ID > maxID {
					maxID = sp.ID
				}
				spans = append(spans, sp)
			}
			offset = maxID
		}
		w.Header().Set("Content-Type", "application/json")
		if err := obs.WriteChromeSpans(w, spans, time.Time{}); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	body := SlowTraces{
		Captured: s.metrics.slowCaptured.Load(),
		Traces:   traces,
	}
	if s.cluster != nil {
		m := s.cluster.Metrics()
		body.CommRooflineRatio = roofline.Ratio(
			float64(m.WireBytesSent+m.WireBytesRecv), float64(m.CommFloorBytes))
	}
	writeJSON(w, body)
}
