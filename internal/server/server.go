// Package server is the HTTP service layer of the repository: the
// long-lived counterpart to the one-shot cmd/ tools. It serves FFT
// transforms (single and batch) from a shared plan cache, runs network
// simulations and the paper's comparison tables on demand, and exposes
// health and metrics endpoints.
//
// Architecture: every compute-bearing request is dispatched to a
// bounded worker pool (backpressure instead of unbounded goroutines),
// carries a per-request context timeout, and is wrapped in
// panic-recovery middleware so a worker panic becomes one 500 response
// rather than a dead daemon. Identical concurrent simulate/compare
// queries are coalesced into a single execution. Shutdown is graceful:
// the HTTP listener stops accepting, in-flight requests finish, then
// the pool drains.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/wire"
	"repro/internal/obs"
	"repro/internal/pencil"
	"repro/internal/plancache"
)

// Config tunes the service; zero values mean the documented defaults.
type Config struct {
	// Workers is the worker-pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds jobs waiting for a worker; 0 means 256.
	QueueDepth int
	// RequestTimeout is the per-request context deadline; 0 means 30s.
	RequestTimeout time.Duration
	// PlanCacheSize is the plan-cache capacity in plans; 0 means 64.
	PlanCacheSize int
	// MaxTransformLen rejects transforms longer than this; 0 means 2^22.
	MaxTransformLen int
	// MaxBatch rejects /v1/fft batches larger than this; 0 means 4096.
	MaxBatch int
	// PencilMemCap bounds per-node band memory for /v1/fft2d pencil
	// runs; larger transforms stream out of core. 0 means
	// pencil.DefaultMemCap (256 MiB).
	PencilMemCap int64
	// MaxSimNodes rejects simulations larger than this; 0 means 2^14.
	MaxSimNodes int
	// LatencyWindow is the latency histogram's sample window; 0 means
	// trace.DefaultHistogramWindow.
	LatencyWindow int
	// Logger, when non-nil, receives one structured record per finished
	// request (id, route, status, elapsed). Nil disables request logging.
	Logger *slog.Logger
	// SlowThreshold enables span tracing on compute-bearing routes:
	// requests slower than the threshold have their span tree captured
	// into the slow-trace ring served at GET /v1/debug/slow. Zero
	// disables both tracing and capture (the default; benchmarks and
	// tests see the untraced fast path).
	SlowThreshold time.Duration
	// TraceSampleEvery, when > 0, traces and captures every Nth
	// compute-bearing request regardless of speed — a low-cost way to
	// keep example traces flowing on a healthy service.
	TraceSampleEvery int
	// SlowRingSize bounds the slow-trace ring; 0 means 32.
	SlowRingSize int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.PlanCacheSize <= 0 {
		c.PlanCacheSize = 64
	}
	if c.MaxTransformLen <= 0 {
		c.MaxTransformLen = 1 << 22
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.MaxSimNodes <= 0 {
		c.MaxSimNodes = 1 << 14
	}
	if c.SlowRingSize <= 0 {
		c.SlowRingSize = 32
	}
	return c
}

// Server is the fftd service: handlers plus the shared plan cache,
// worker pool, coalescing group and metrics.
type Server struct {
	cfg      Config
	cache    *plancache.Cache
	pool     *workerPool
	metrics  *Metrics
	flights  flightGroup
	mux      *http.ServeMux
	slow     *slowRing
	rids     *requestIDs
	reqSeq   atomic.Int64 // drives TraceSampleEvery
	draining atomic.Bool  // set by StartDrain; read by /readyz and cluster pings

	// cluster, when set, shards transforms across the ring instead of
	// always executing locally. Written once at startup (SetCluster)
	// before the listener starts accepting.
	cluster *cluster.Client

	// pencilWorker serves pencil band sub-operations: local /v1/fft2d
	// stages, and (in cluster mode) shards deposited by peers via
	// cluster.Node. pencilTransport carries the coordinator's
	// sub-operations — in-process single-node, over the cluster client
	// once SetCluster installs one.
	pencilWorker    *pencil.Worker
	pencilMetrics   *pencil.Metrics
	pencilTransport pencil.Transport
}

// New creates a ready-to-serve Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   plancache.New(cfg.PlanCacheSize),
		pool:    newWorkerPool(cfg.Workers, cfg.QueueDepth),
		metrics: newMetrics(cfg.LatencyWindow),
		slow:    newSlowRing(cfg.SlowRingSize),
		rids:    newRequestIDs(),
	}
	s.pencilWorker = pencil.NewWorker(pencil.WorkerConfig{
		MemCap: cfg.PencilMemCap,
		Plans:  s.cache,
	})
	s.pencilMetrics = &pencil.Metrics{}
	s.pencilTransport = pencil.NewLocalTransport(false, map[string]*pencil.Worker{
		localPencilWorker: s.pencilWorker,
	})
	s.mux = http.NewServeMux()
	// Compute-bearing routes are traceable; the cheap read-only
	// endpoints are not (tracing a metrics scrape tells nobody
	// anything, and sampling would fill the ring with them).
	s.route("POST /v1/fft", s.handleFFT, true)
	s.route("POST /v1/fft2d", s.handleFFT2D, true)
	s.route("POST /v1/simulate", s.handleSimulate, true)
	s.route("GET /v1/compare", s.handleCompare, true)
	s.route("GET /healthz", s.handleHealthz, false)
	s.route("GET /readyz", s.handleReadyz, false)
	s.route("GET /metrics", s.handleMetrics, false)
	s.route("GET /v1/debug/slow", s.handleSlow, false)
	return s
}

// Handler returns the root handler; cmd/fftd mounts it on an
// http.Server and tests mount it on httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// PlanCache exposes the shared plan cache (tests assert hit counters).
func (s *Server) PlanCache() *plancache.Cache { return s.cache }

// MetricsSnapshot returns the current counters, as served by /metrics.
// In cluster mode the snapshot carries the routing client's counters.
func (s *Server) MetricsSnapshot() Snapshot {
	snap := s.metrics.snapshot(s.cache, s.pool)
	if s.cluster != nil {
		cm := s.cluster.Metrics()
		snap.Cluster = &cm
	}
	pm := s.pencilMetrics.Snapshot()
	ws := s.pencilWorker.Stats()
	snap.Pencil = &pm
	snap.PencilWorker = &ws
	return snap
}

// StartDrain marks the server draining: /readyz starts answering 503
// and (in cluster mode) peers see ready=false on their next heartbeat,
// so new traffic routes away while in-flight requests finish. Call it
// when shutdown is requested, before http.Server.Shutdown.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called — readiness as
// distinct from liveness (/healthz stays 200 throughout a drain).
func (s *Server) Draining() bool { return s.draining.Load() }

// SetCluster installs the cluster routing client. Call it once during
// startup, before the HTTP listener accepts requests. It also switches
// /v1/fft2d onto the cluster: pencil sub-operations ride the client's
// pooled connections to every ring member, with the self-owned shard
// served in-process by this server's pencil worker.
func (s *Server) SetCluster(c *cluster.Client) {
	s.cluster = c
	s.pencilTransport = &cluster.PencilTransport{
		Client: c,
		Self:   c.Registry().Self(),
		Local:  s.pencilWorker,
	}
}

// PencilWorker exposes the server's pencil executor so cmd/fftd can
// hand it to cluster.NodeConfig — peers' coordinators then deposit
// bands into the same worker /v1/fft2d uses locally.
func (s *Server) PencilWorker() *pencil.Worker { return s.pencilWorker }

// Cluster returns the installed cluster client, or nil.
func (s *Server) Cluster() *cluster.Client { return s.cluster }

// ClusterExecutor returns this server's local transform executor: the
// plan-cache-backed function a cluster.Node runs forwarded transforms
// through, and the cluster.Client runs self-owned shards through. The
// results are byte-identical to the single-node serving path because it
// IS the single-node serving path.
func (s *Server) ClusterExecutor() cluster.Executor {
	return func(ctx context.Context, op *wire.TransformOp) ([]complex128, error) {
		return s.executeOp(ctx, op, nil)
	}
}

// Close drains the worker pool: queued jobs finish, workers exit. Call
// it after the HTTP listener has stopped accepting requests (e.g. after
// http.Server.Shutdown returns); requests arriving afterwards fail with
// 503.
func (s *Server) Close() { s.pool.close() }

// statusError carries an HTTP status through the handler plumbing.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// badRequest builds a 400-class statusError.
func badRequest(format string, args ...any) error {
	return &statusError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// unavailable builds a 503-class statusError — transient server-side
// conditions a client may retry, as distinct from caller errors.
func unavailable(format string, args ...any) error {
	return &statusError{status: http.StatusServiceUnavailable, msg: fmt.Sprintf(format, args...)}
}

// maxBodyBytes bounds a transform request body, derived from
// MaxTransformLen: the JSON wire form of one complex sample
// ("[<float>,<float>]") is under 64 bytes even at full float64
// precision, and 64 KiB covers the request envelope. The cap counts the
// whole body, bytes after the JSON value included. Any valid request
// fits; a hostile or runaway body is cut off at the reader instead of
// buffered into memory.
func (s *Server) maxBodyBytes() int64 {
	return int64(s.cfg.MaxTransformLen)*64 + 64<<10
}

// httpStatus maps a handler error onto a response code: explicit
// statusErrors pass through, pool drain and worker panics become 503
// and 500, timeouts 504, everything else 500.
func httpStatus(err error) int {
	switch e := err.(type) {
	case *statusError:
		return e.status
	case *panicError:
		return http.StatusInternalServerError
	}
	if err == nil {
		return http.StatusOK
	}
	if errors.Is(err, ErrDraining) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, ErrSaturated) {
		return http.StatusTooManyRequests
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// statusRecorder captures the status a handler wrote, for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// route mounts a handler wrapped in the service middleware: request
// IDs, request counting, latency observation, per-request timeout,
// structured logging, span tracing with slow-trace capture (traceable
// routes only), and panic recovery (a handler panic — as opposed to a
// worker panic, which the pool converts — also becomes a 500, not a
// dead connection without a response line).
func (s *Server) route(pattern string, h http.HandlerFunc, traceable bool) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.rids.next()
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()

		// A request is traced when slow-capture is armed (we cannot know
		// up front that it will be fast) or the sampler picks it. The
		// common untraced configuration pays one branch here and nil
		// tracer no-ops below.
		var tr *obs.Tracer
		var root *obs.Span
		sampled := false
		if traceable {
			if n := s.cfg.TraceSampleEvery; n > 0 && s.reqSeq.Add(1)%int64(n) == 0 {
				sampled = true
			}
			if sampled || s.cfg.SlowThreshold > 0 {
				tr = obs.New()
				root = tr.Start(pattern).SetCat(obs.CatServer).SetDetail("request " + id)
				tr.SetParent(root)
				ctx = obs.WithTracer(ctx, tr)
				ctx = obs.WithSpan(ctx, root)
			}
		}
		r = r.WithContext(ctx)
		defer func() {
			if p := recover(); p != nil {
				if rec.status == http.StatusOK {
					writeError(rec, fmt.Errorf("handler panic: %v", p))
				}
			}
			elapsed := time.Since(start)
			s.metrics.observe(pattern, rec.status, elapsed)
			var ro obs.Rollup
			if tr != nil {
				root.End()
				spans := tr.Snapshot()
				ro = obs.RollupOf(spans)
				if sampled || (s.cfg.SlowThreshold > 0 && elapsed >= s.cfg.SlowThreshold) {
					ct := CapturedTrace{
						RequestID:     id,
						Route:         pattern,
						Status:        rec.status,
						Start:         start,
						DurationMS:    float64(elapsed) / float64(time.Millisecond),
						Sampled:       sampled,
						WireBytesSent: ro.BytesSent,
						WireBytesRecv: ro.BytesRecv,
						RemoteSpans:   ro.RemoteSpans,
						Spans:         spans,
					}
					if tid := tr.TraceID(); tid != 0 {
						ct.TraceID = fmt.Sprintf("%016x", tid)
					}
					s.slow.add(ct)
					s.metrics.slowCaptured.Add(1)
				}
			}
			if l := s.cfg.Logger; l != nil {
				// One record per request. Traced requests widen it into the
				// canonical "wide event": the whole request story — stage
				// timings by span category, wire byte counts, remote span
				// count, trace ID — on a single queryable line.
				attrs := []slog.Attr{
					slog.String("id", id),
					slog.String("route", pattern),
					slog.Int("status", rec.status),
					slog.Duration("elapsed", elapsed),
				}
				if tr != nil {
					if tid := tr.TraceID(); tid != 0 {
						attrs = append(attrs, slog.String("trace_id", fmt.Sprintf("%016x", tid)))
					}
					attrs = append(attrs,
						slog.Int("spans", ro.Spans),
						slog.Int("remote_spans", ro.RemoteSpans),
						slog.Int64("wire_bytes_sent", ro.BytesSent),
						slog.Int64("wire_bytes_recv", ro.BytesRecv),
					)
					if ro.Steps > 0 {
						attrs = append(attrs, slog.Int("steps", ro.Steps))
					}
					cats := make([]string, 0, len(ro.StageNs))
					for cat := range ro.StageNs {
						cats = append(cats, cat)
					}
					sort.Strings(cats)
					stages := make([]any, 0, len(cats))
					for _, cat := range cats {
						stages = append(stages, slog.Float64(cat, float64(ro.StageNs[cat])/1e6))
					}
					attrs = append(attrs, slog.Group("stage_ms", stages...))
				}
				l.LogAttrs(context.Background(), slog.LevelInfo, "request", attrs...)
			}
		}()
		h(rec, r)
	})
}

// writeJSON renders v with status 200.
func writeJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// jsonBufs pools response bodies: a body is encoded in full before its
// status line is written.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// EncodeResponse appends v's compact JSON encoding, newline-terminated,
// to dst — the body every fftd route writes. On error dst is left as it
// was. The per-layer benchmark suites time the encode stage with it.
func EncodeResponse(dst *bytes.Buffer, v any) error {
	// json.Encoder marshals into its own buffer and writes only a
	// complete encoding.
	return json.NewEncoder(dst).Encode(v)
}

// writeJSONStatus renders v as compact JSON with the given status. The
// body is encoded before any header goes out, so a value that cannot be
// marshalled (a non-finite float, say) becomes a 500 with a JSON error
// body rather than a 200 with an empty one.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBytes {
			jsonBufs.Put(buf)
		}
	}()
	buf.Reset()
	if err := EncodeResponse(buf, v); err != nil {
		status = http.StatusInternalServerError
		_ = EncodeResponse(buf, errorBody{Error: "encode response: " + err.Error(), Status: status})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// retryAfterSeconds is the Retry-After hint on 429 responses. The pool
// drains its bounded queue in well under a second at every measured
// size, so one second is a safe, cheap-to-compute backoff hint.
const retryAfterSeconds = "1"

// writeError renders err with its mapped status code. Saturation
// rejections carry a Retry-After header so well-behaved clients back
// off instead of hammering a full queue.
func writeError(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSONStatus(w, status, errorBody{Error: err.Error(), Status: status})
}
