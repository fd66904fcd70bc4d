package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/server"
)

// request is one distinct payload of a workload's pool, with what the
// in-process replay of the traced run needs to repeat its layer calls.
type request struct {
	label string // latency cohort: shape or network
	body  []byte // pre-encoded JSON request
	// check decodes a response and compares it with the reference
	// computed in-process from internal/fft; it runs once per distinct
	// payload before any timing.
	check func(resp []byte) error

	x          []complex128 // time-domain input (fft1d, fft2d)
	ref        []complex128 // its transform by internal/fft
	n          int          // transform length (fft1d) or node count (simulate)
	rows, cols int          // fft2d shape
	network    string       // simulate
	simSeed    int64        // simulate
}

// workload is one traffic mix. Requests cycle through pool in order, so
// every run serves the same cohort proportions.
type workload struct {
	name  string
	path  string // URL path the clients POST to
	route string // the daemon's route label in /metrics
	pool  []request
}

// Workload shapes. The simulate step counts are the paper's Table 2A
// values at N = 4096 (hypermesh: 12 butterfly + 3 bit-reversal steps).
const (
	fft1dN    = 1024
	fft1dPool = 32
	fft2dSide = 64
	fft2dPool = 8
	simN      = 4096
	simSeeds  = 8
	// fftTol bounds |got - ref| relative to the reference's largest
	// magnitude; the daemon runs the same kernels, so it reads 0 today.
	fftTol = 1e-9
)

var (
	simNetworks = []string{"hypermesh", "hypercube", "mesh"}
	simSteps    = map[string][2]int{ // butterfly, bit-reversal
		"hypermesh": {12, 3},
		"hypercube": {12, 12},
		"mesh":      {126, 63},
	}
)

func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "fft1d":
		w := &workload{name: name, path: "/v1/fft", route: "POST /v1/fft"}
		for i := 0; i < fft1dPool; i++ {
			r, err := fftRequest(rng, fft1dN)
			if err != nil {
				return nil, err
			}
			w.pool = append(w.pool, r)
		}
		return w, nil
	case "fft2d":
		w := &workload{name: name, path: "/v1/fft2d", route: "POST /v1/fft2d"}
		for i := 0; i < fft2dPool; i++ {
			r, err := fft2dRequest(rng, fft2dSide, fft2dSide)
			if err != nil {
				return nil, err
			}
			w.pool = append(w.pool, r)
		}
		return w, nil
	case "simulate":
		w := &workload{name: name, path: "/v1/simulate", route: "POST /v1/simulate"}
		// A distinct simulation seed per pool entry: two clients never
		// send the same query at once, so nothing coalesces.
		for i := 0; i < simSeeds*len(simNetworks); i++ {
			r, err := simRequest(simNetworks[i%len(simNetworks)], seed*1000+int64(i))
			if err != nil {
				return nil, err
			}
			w.pool = append(w.pool, r)
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (fft1d, fft2d, simulate)", name)
}

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func toPairs(x []complex128) []server.Complex {
	out := make([]server.Complex, len(x))
	for i, v := range x {
		out[i] = server.Complex{real(v), imag(v)}
	}
	return out
}

// fftRequest is one forward complex transform of length n, a power of
// two, so split-radix as the daemon chooses.
func fftRequest(rng *rand.Rand, n int) (request, error) {
	x := randomSignal(rng, n)
	body, err := json.Marshal(server.FFTRequest{TransformSpec: server.TransformSpec{Input: toPairs(x)}})
	if err != nil {
		return request{}, err
	}
	p, err := fft.NewPlan(n)
	if err != nil {
		return request{}, err
	}
	ref := make([]complex128, n)
	p.Transform(ref, x)
	check := func(resp []byte) error {
		var got server.FFTResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if len(got.Results) != 1 || got.Results[0].Error != "" || got.Results[0].N != n {
			return fmt.Errorf("want one n=%d result, got %+v", n, got.Results)
		}
		out := make([]complex128, len(got.Results[0].Output))
		for i, v := range got.Results[0].Output {
			out[i] = complex(v[0], v[1])
		}
		return closeTo(out, ref)
	}
	return request{label: fmt.Sprintf("n%d", n), body: body, check: check, x: x, ref: ref, n: n}, nil
}

// closeTo checks got against ref within fftTol of ref's peak magnitude.
func closeTo(got, ref []complex128) error {
	if len(got) != len(ref) {
		return fmt.Errorf("%d output samples, want %d", len(got), len(ref))
	}
	peak := 1.0
	for _, v := range ref {
		peak = math.Max(peak, cmplx.Abs(v))
	}
	for i, v := range got {
		if d := cmplx.Abs(v - ref[i]); !(d <= fftTol*peak) {
			return fmt.Errorf("bin %d: |got-ref| = %g > %g", i, d, fftTol*peak)
		}
	}
	return nil
}

// fft2dRequest is one forward rows×cols transform; the answer must be
// bit-identical to fft.Plan2D.
func fft2dRequest(rng *rand.Rand, rows, cols int) (request, error) {
	x := randomSignal(rng, rows*cols)
	body, err := json.Marshal(server.FFT2DRequest{Rows: rows, Cols: cols, Input: toPairs(x)})
	if err != nil {
		return request{}, err
	}
	p, err := fft.NewPlan2D(rows, cols)
	if err != nil {
		return request{}, err
	}
	ref := make([]complex128, rows*cols)
	p.Transform(ref, x)
	check := func(resp []byte) error {
		var got server.FFT2DResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if got.Rows != rows || got.Cols != cols || len(got.Output) != len(ref) {
			return fmt.Errorf("shape %dx%d with %d samples, want %dx%d", got.Rows, got.Cols, len(got.Output), rows, cols)
		}
		for i, v := range got.Output {
			if math.Float64bits(v[0]) != math.Float64bits(real(ref[i])) ||
				math.Float64bits(v[1]) != math.Float64bits(imag(ref[i])) {
				return fmt.Errorf("sample %d: %v, Plan2D gives %v", i, v, ref[i])
			}
		}
		return nil
	}
	return request{label: fmt.Sprintf("%dx%d", rows, cols), body: body, check: check, x: x, ref: ref, rows: rows, cols: cols}, nil
}

// simRequest is one N=4096 FFT simulation on network.
func simRequest(network string, seed int64) (request, error) {
	body, err := json.Marshal(server.SimulateRequest{Network: network, N: simN, Scenario: "fft", Seed: seed})
	if err != nil {
		return request{}, err
	}
	steps := simSteps[network]
	check := func(resp []byte) error {
		var got server.SimulateResponse
		if err := json.Unmarshal(resp, &got); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		switch {
		case got.Network != network || got.N != simN || got.Seed != seed:
			return fmt.Errorf("answered %s n=%d seed=%d, asked %s n=%d seed=%d", got.Network, got.N, got.Seed, network, simN, seed)
		case got.ButterflySteps != steps[0] || got.BitReversalSteps != steps[1] || got.TotalSteps != steps[0]+steps[1]:
			return fmt.Errorf("%s: steps %d+%d=%d, want %d+%d", network, got.ButterflySteps, got.BitReversalSteps, got.TotalSteps, steps[0], steps[1])
		case !(got.MaxError <= 1e-9):
			return fmt.Errorf("%s: max_error %g > 1e-9", network, got.MaxError)
		case got.Coalesced:
			return fmt.Errorf("%s seed %d: coalesced", network, seed)
		}
		return nil
	}
	return request{label: network, body: body, check: check, n: simN, network: network, simSeed: seed}, nil
}
