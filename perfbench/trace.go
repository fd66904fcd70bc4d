package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bits"
	"repro/internal/clos"
	"repro/internal/fft"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/parfft"
	"repro/internal/pencil"
	"repro/internal/permute"
	"repro/internal/plancache"
	"repro/internal/server"
)

const (
	// replayBudget bounds the in-process replay; it always covers the
	// whole pool at least once.
	replayBudget = 1500 * time.Millisecond
	// lookupRounds is how many warm plan-cache lookups of each of the
	// workload's shapes one span times.
	lookupRounds = 20000
)

// localExec runs transforms in-process the way fftd's executeOp does:
// split-radix plans from a plan cache (every workload length is a power
// of two); and 2D transforms through a pencil worker over the in-process
// transport, as single-node /v1/fft2d does.
type localExec struct {
	cache  *plancache.Cache
	pencil *pencil.LocalTransport
}

func newLocalExec() *localExec {
	cache := plancache.New(64)
	w := pencil.NewWorker(pencil.WorkerConfig{Plans: cache})
	return &localExec{cache: cache, pencil: pencil.NewLocalTransport(false, map[string]*pencil.Worker{"local": w})}
}

func (l *localExec) transform(dst, x []complex128) error {
	p, err := l.cache.ComplexPlan(len(x))
	if err != nil {
		return err
	}
	p.Transform(dst, x)
	return nil
}

// lookup is one warm plan-cache lookup of r's plan.
func (l *localExec) lookup(r *request) error {
	var err error
	if r.rows > 0 {
		_, err = l.cache.Plan2D(r.rows, r.cols)
	} else {
		_, err = l.cache.ComplexPlan(r.n)
	}
	return err
}

func flops(n int) float64 { return 5 * float64(n) * math.Log2(float64(n)) }

// replayStats holds what the replay measures outside spans.
type replayStats struct {
	n            int    // replayed requests
	handlerAlloc uint64 // bytes allocated by ServeHTTP, summed
	fftFlops     float64
	lookups      int
	parfftAlloc  uint64 // bytes allocated by parfft.Run, summed
	parfftRuns   int
	netStats     map[string]netsim.Stats
}

// replay runs the workload's requests in-process, with no daemon
// running: each request is one "replay" span, with the server handler
// and then each layer call the handler makes on the same input as child
// spans. The handler's answer must be byte-identical to the daemon's.
func (b *bench) replay(ctx context.Context, tr *obs.Tracer) (replayStats, error) {
	srv := server.New(server.Config{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	defer srv.Close()
	h := srv.Handler()
	le := newLocalExec()
	rs := replayStats{netStats: map[string]netsim.Stats{}}
	var m0, m1 runtime.MemStats
	start := time.Now()
	for i := 0; i < len(b.wl.pool) || time.Since(start) < replayBudget; i++ {
		if err := ctx.Err(); err != nil {
			return rs, err
		}
		idx := i % len(b.wl.pool)
		r := &b.wl.pool[idx]
		root := tr.Start("replay " + b.wl.route).SetCat("request").SetDetail(fmt.Sprintf("req=%d %s", i, r.label))
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodPost, b.wl.path, bytes.NewReader(r.body))
		runtime.ReadMemStats(&m0)
		sp := root.Child("server.ServeHTTP").SetCat("server")
		h.ServeHTTP(rec, hreq)
		sp.End()
		runtime.ReadMemStats(&m1)
		rs.handlerAlloc += m1.TotalAlloc - m0.TotalAlloc
		b.tally.record(b.want, idx, rec.Code, rec.Body.Bytes(), nil)
		err := b.layerCalls(ctx, root, r, le, &rs)
		root.End()
		if err != nil {
			return rs, fmt.Errorf("replay %s: %w", r.label, err)
		}
		rs.n++
	}
	// Every pool entry of a workload has the same shape.
	sp := tr.Start("plancache.lookup").SetCat("plancache")
	for k := 0; k < lookupRounds; k++ {
		if err := le.lookup(&b.wl.pool[0]); err != nil {
			return rs, err
		}
		rs.lookups++
	}
	sp.SetDetail(fmt.Sprintf("%d warm lookups", rs.lookups)).End()
	return rs, nil
}

// layerCalls repeats, under root, the layer calls fftd's handler makes
// for r, plus the workload's reference kernels.
func (b *bench) layerCalls(ctx context.Context, root *obs.Span, r *request, le *localExec, rs *replayStats) error {
	switch b.wl.name {
	case "fft1d":
		dst := make([]complex128, r.n)
		sp := root.Child("fft.Transform").SetCat("fft")
		err := le.transform(dst, r.x)
		sp.End()
		rs.fftFlops += flops(r.n)
		if err != nil {
			return err
		}
		return closeTo(dst, r.ref)

	case "fft2d":
		out := make([]complex128, len(r.x))
		sp := root.Child("pencil.Run").SetCat("pencil")
		_, err := pencil.Run(ctx, pencil.Config{
			Shape:     pencil.Shape2D(r.rows, r.cols),
			Workers:   []string{"local"},
			Transport: le.pencil,
			Metrics:   &pencil.Metrics{},
		}, pencil.SliceSource{Data: r.x, Cols: r.cols}, pencil.SliceSink{Data: out, Cols: r.cols})
		sp.End()
		if err != nil {
			return err
		}
		p, err := le.cache.Plan2D(r.rows, r.cols)
		if err != nil {
			return err
		}
		ref := make([]complex128, len(r.x))
		sp = root.Child("fft.Plan2D").SetCat("fft")
		p.Transform(ref, r.x)
		sp.End()
		rs.fftFlops += flops(len(r.x))
		return errors.Join(bitIdentical(out, r.ref), bitIdentical(ref, r.ref))

	case "simulate":
		sp := root.Child("netsim.build " + r.network).SetCat("netsim")
		m, err := newMachine(r.network, r.n)
		sp.End()
		if err != nil {
			return err
		}
		// The daemon draws the simulated input the same way.
		rng := rand.New(rand.NewSource(r.simSeed))
		x := randomSignal(rng, r.n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sp = root.Child("parfft.Run " + r.network).SetCat("parfft")
		res, err := parfft.Run(m, x, parfft.Options{Plans: le.cache.Source()})
		sp.End()
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		rs.parfftAlloc += m1.TotalAlloc - m0.TotalAlloc
		rs.parfftRuns++
		want := make([]complex128, r.n)
		sp = root.Child("fft.Transform").SetCat("fft")
		err = le.transform(want, x)
		sp.End()
		rs.fftFlops += flops(r.n)
		if err != nil {
			return err
		}
		steps := simSteps[r.network]
		if res.ButterflySteps != steps[0] || res.BitReversalSteps != steps[1] {
			return fmt.Errorf("%s: steps %d+%d, want %d+%d", r.network, res.ButterflySteps, res.BitReversalSteps, steps[0], steps[1])
		}
		if d := fft.MaxAbsDiff(res.Output, want); !(d <= 1e-9) {
			return fmt.Errorf("%s: max error %g", r.network, d)
		}
		st := m.Stats()
		if prev, ok := rs.netStats[r.network]; ok && prev != st {
			return fmt.Errorf("%s: counts changed between runs: %+v, then %+v", r.network, prev, st)
		}
		rs.netStats[r.network] = st
		if r.network == "hypermesh" {
			side := int(math.Sqrt(float64(r.n)))
			sp = root.Child("clos.DecomposeND").SetCat("clos")
			_, err := clos.DecomposeND(side, 2, permute.BitReversal(r.n))
			sp.End()
			return err
		}
	}
	return nil
}

// newMachine builds the simulated machine as fftd's /v1/simulate does.
func newMachine(network string, n int) (netsim.Machine[complex128], error) {
	side := int(math.Sqrt(float64(n)))
	switch network {
	case "mesh":
		return netsim.NewMesh[complex128](side, true, netsim.Config{})
	case "hypermesh":
		return netsim.NewHypermesh[complex128](side, 2, netsim.Config{})
	case "hypercube":
		return netsim.NewHypercube[complex128](bits.Log2(n), netsim.Config{})
	}
	return nil, fmt.Errorf("unknown network %q", network)
}

func bitIdentical(got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return fmt.Errorf("sample %d: %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// spanTimes sums span durations by name.
type spanTimes map[string]struct {
	total time.Duration
	n     int
}

func timesOf(spans []obs.SpanData) spanTimes {
	out := spanTimes{}
	for _, s := range spans {
		t := out[s.Name]
		t.total += s.Duration
		t.n++
		out[s.Name] = t
	}
	return out
}

// meanMS is the mean duration of spans named name, in ms (0 if none).
func (st spanTimes) meanMS(name string) float64 {
	t := st[name]
	if t.n == 0 {
		return 0
	}
	return ms(t.total) / float64(t.n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun reports the per-layer metrics. The daemon serves an
// untraced phase and then a traced one of d/2 each; its counters are
// read around the traced phase. Then, with the daemon gone, the
// workload is replayed in-process. All spans go to one Chrome trace.
func (b *bench) tracedRun(ctx context.Context, d time.Duration, seed int64) (metrics, error) {
	if _, err := b.setup(ctx); err != nil {
		return nil, err
	}
	url := b.live.url
	setupProm, err := scrape(ctx, b.hc, url)
	if err != nil {
		return nil, err
	}
	if _, err := b.drive(ctx, url, warmup, 0, nil); err != nil {
		return nil, err
	}
	plain, err := b.drive(ctx, url, d/2, 0, nil)
	if err != nil {
		return nil, err
	}
	before, err := scrape(ctx, b.hc, url)
	if err != nil {
		return nil, err
	}
	tr := obs.New()
	traced, err := b.drive(ctx, url, d/2, 0, tr)
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, b.hc, url)
	if err != nil {
		return nil, err
	}
	b.stopDaemon()
	rs, err := b.replay(ctx, tr)
	if err != nil {
		return nil, err
	}

	spans := tr.Snapshot()
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.json", b.wl.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), path)
	printCohorts(latencies(traced), fmt.Sprintf("traced phase, %.2f s", traced.elapsed.Seconds()))

	reqs := float64(traced.last - traced.first)
	delta := func(name string) float64 { return after.sum(name) - before.sum(name) }
	st := timesOf(spans)
	aggPlain, aggTraced := latencies(plain).Aggregate(), latencies(traced).Aggregate()

	// The replay's spans split each request's handler call into the
	// server's self time and its layer calls, which together make up
	// server.handler_ms.
	handlerMS := st.meanMS("server.ServeHTTP")
	var onPath time.Duration // the handler's own layer calls
	for name, t := range st {
		for _, p := range []string{"fft.Transform", "pencil.Run", "netsim.build", "parfft.Run"} {
			if strings.HasPrefix(name, p) {
				onPath += t.total
			}
		}
	}
	selfMS, layersMS := handlerMS-ms(onPath)/float64(rs.n), ms(onPath)/float64(rs.n)
	route := fmt.Sprintf("{route=%q}", b.wl.route)
	sum, count := "fftd_request_duration_seconds_sum"+route, "fftd_request_duration_seconds_count"+route
	daemonMS := 1000 * ratio(after[sum]-before[sum], after[count]-before[count])
	outsideMS := aggTraced.MeanMS - daemonMS

	fftName := "fft.Transform"
	if b.wl.name == "fft2d" {
		fftName = "fft.Plan2D"
	}
	fftUS := 1000 * st.meanMS(fftName)
	setupHits, setupMisses := setupProm.sum("fftd_plan_cache_hits_total"), setupProm.sum("fftd_plan_cache_misses_total")
	hits, misses := delta("fftd_plan_cache_hits_total"), delta("fftd_plan_cache_misses_total")
	peakBand := after[`fftd_pencil_band_bytes{state="peak"}`]

	out := metrics{
		{"server.handler_ms", metric{handlerMS, "ms"}},
		{"server.self_ms", metric{selfMS, "ms"}},
		{"server.alloc_kb_per_req", metric{float64(rs.handlerAlloc) / 1024 / float64(rs.n), "KiB"}},
		{"server.daemon_ms", metric{daemonMS, "ms"}},
		{"server.outside_ms", metric{outsideMS, "ms"}},
		{"server.pool_rejected", metric{delta("fftd_pool_rejected_total"), "count"}},
		{"runtime.gc_per_kreq", metric{1000 * delta("go_gc_cycles_total") / reqs, "count"}},
		{"runtime.gc_pause_ms_per_kreq", metric{1e6 * delta("go_gc_pause_seconds_total") / reqs, "ms"}},
		{"plancache.hit_ratio", metric{ratio(hits, hits+misses), "ratio"}},
		{"plancache.misses", metric{misses, "count"}},
		{"plancache.setup_hit_ratio", metric{ratio(setupHits, setupHits+setupMisses), "ratio"}},
		{"plancache.setup_misses", metric{setupMisses, "count"}},
		{"plancache.lookup_us", metric{1000 * ms(st["plancache.lookup"].total) / float64(rs.lookups), "us"}},
		{"fft.transform_us", metric{fftUS, "us"}},
		{"fft.gflops", metric{ratio(rs.fftFlops, float64(st[fftName].total.Nanoseconds())), "GFLOP/s"}},
		{"fft.share", metric{ratio(fftUS, 1000*handlerMS), "ratio"}},
		{"fft.plan2d_us", metric{1000 * st.meanMS("fft.Plan2D"), "us"}},
		{"pencil.run_us", metric{1000 * st.meanMS("pencil.Run"), "us"}},
		{"pencil.overhead_ratio", metric{ratio(st.meanMS("pencil.Run"), st.meanMS("fft.Plan2D")), "ratio"}},
		{"pencil.rpcs_per_req", metric{delta("fftd_pencil_rpcs_total") / reqs, "count"}},
		{"pencil.peak_band_kb", metric{peakBand / 1024, "KiB"}},
	}
	for _, net := range simNetworks {
		out = append(out,
			namedMetric{"netsim.build_ms." + net, metric{st.meanMS("netsim.build " + net), "ms"}},
			namedMetric{"parfft.run_ms." + net, metric{st.meanMS("parfft.Run " + net), "ms"}})
	}
	out = append(out,
		namedMetric{"clos.decompose_ms", metric{st.meanMS("clos.DecomposeND"), "ms"}},
		namedMetric{"netsim.alloc_mb_per_req", metric{ratio(float64(rs.parfftAlloc)/(1<<20), float64(rs.parfftRuns)), "MiB"}})
	for _, net := range simNetworks {
		s := rs.netStats[net]
		out = append(out,
			namedMetric{"netsim.steps." + net, metric{float64(s.Steps), "count"}},
			namedMetric{"netsim.words." + net, metric{float64(s.Words), "count"}},
			namedMetric{"netsim.link_traversals." + net, metric{float64(s.LinkTraversals), "count"}})
	}
	out = append(out,
		namedMetric{"trace.overhead_pct", metric{100 * (aggTraced.P50MS - aggPlain.P50MS) / aggPlain.P50MS, "%"}},
		// The layers' measured self times over the client's mean latency.
		// server.outside_ms is left out: it is the remainder of that mean,
		// so adding it would make the ratio 1 by construction, while a
		// layer the spans miss should lower it.
		namedMetric{"trace.coverage", metric{ratio(selfMS+layersMS, aggTraced.MeanMS), "ratio"}})
	return out, nil
}

// writeSpans writes spans as a Chrome trace_event file.
func writeSpans(path string, spans []obs.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	if err := obs.WriteChromeSpans(f, spans, epoch); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
