package server

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/pencil"
)

// localPencilWorker names the in-process worker of the single-node
// pencil transport. Cluster mode replaces the name with real ring
// addresses.
const localPencilWorker = "local"

// ---- /v1/fft2d ----

// FFT2DRequest asks for one multidimensional FFT over row-major
// complex input. Rows x Cols is a 2D transform; Depth > 1 extends it to
// a Rows x Cols x Depth 3D transform (input ordered x, then y, then z).
// The request always runs through the pencil coordinator: single-node
// it is served by the in-process worker, in cluster mode the row slabs
// and column bands spread across the ring and the transpose travels the
// wire protocol.
type FFT2DRequest struct {
	Rows    int       `json:"rows"`
	Cols    int       `json:"cols"`
	Depth   int       `json:"depth,omitempty"`
	Input   []Complex `json:"input"`
	Inverse bool      `json:"inverse,omitempty"`
}

// FFT2DResponse carries the transformed array plus the run's
// distribution and communication accounting — the serving-layer view of
// the paper's partitioned-butterfly cost model.
type FFT2DResponse struct {
	Rows    int  `json:"rows"`
	Cols    int  `json:"cols"`
	Depth   int  `json:"depth,omitempty"`
	Inverse bool `json:"inverse,omitempty"`
	// Distributed is true when more than one worker shared the run.
	Distributed bool `json:"distributed"`
	Workers     int  `json:"workers"`
	Bands       int  `json:"bands"`
	// Waves > 1 means the transform ran out of core: column bands were
	// processed in batches bounded by the per-node memory cap.
	Waves int `json:"waves"`
	// Wire accounting: whole frames moved by pencil sub-operations, the
	// analytical transpose floor, and achieved/floor (>= 1 whenever any
	// shard crossed the wire; 0 for a purely in-process run).
	WireBytesSent     int64     `json:"wire_bytes_sent"`
	WireBytesRecv     int64     `json:"wire_bytes_recv"`
	CommFloorBytes    int64     `json:"comm_floor_bytes"`
	CommRooflineRatio float64   `json:"comm_roofline_ratio"`
	Output            []Complex `json:"output"`
}

// pencilWorkers returns the schedule for one run: in cluster mode the
// ring members that can actually serve pencil shards — self plus every
// peer that advertised wire v2 — and the in-process worker otherwise.
// Pencil frames are v2-only, so one v1-only straggler in the ring must
// shrink the schedule, not fail every run.
func (s *Server) pencilWorkers(ctx context.Context) []string {
	if s.cluster == nil {
		return []string{localPencilWorker}
	}
	self := s.cluster.Registry().Self()
	members := s.cluster.Registry().Ring().Members()
	workers := make([]string, 0, len(members))
	for _, m := range members {
		if m == self || s.cluster.PencilCapable(ctx, m) {
			workers = append(workers, m)
		}
	}
	if len(workers) == 0 {
		// Ring empty (every peer marked down) or no capable member:
		// serve on self alone.
		return []string{self}
	}
	return workers
}

// fitsLen reports whether rows*cols*depth, all at least 1, is at most
// limit, without computing a product that could overflow.
func fitsLen(rows, cols, depth, limit int) bool {
	return rows <= limit && cols <= limit/rows && depth <= limit/(rows*cols)
}

// handleFFT2D serves distributed 2D/3D pencil FFTs. The whole run is
// one worker-pool job: coordinating a pencil run is itself
// compute-bearing work (row FFTs on the self-owned slab run in
// process), so it gets the pool's backpressure like any transform.
func (s *Server) handleFFT2D(w http.ResponseWriter, r *http.Request) {
	buf, req, err := s.readFFT2D(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	depth := req.depth
	if depth == 0 {
		depth = 1
	}
	switch {
	case req.rows < 1 || req.cols < 1 || depth < 1:
		err = badRequest("shape %dx%dx%d: sides must be at least 1", req.rows, req.cols, depth)
	case !fitsLen(req.rows, req.cols, depth, s.cfg.MaxTransformLen):
		err = badRequest("shape %dx%dx%d exceeds transform length limit %d", req.rows, req.cols, depth, s.cfg.MaxTransformLen)
	case req.input.n != req.rows*req.cols*depth:
		err = badRequest("input has %d samples, shape %dx%dx%d needs %d",
			req.input.n, req.rows, req.cols, depth, req.rows*req.cols*depth)
	}
	if err != nil {
		buf.release()
		writeError(w, err)
		return
	}
	total := req.rows * req.cols * depth
	shape := pencil.Shape2D(req.rows, req.cols)
	if depth > 1 {
		shape = pencil.Shape3D(req.rows, req.cols, depth)
	}

	// The job owns buf from here: it reads the samples and releases it,
	// unless the pool never queues the job.
	var resp *FFT2DResponse
	var runErr error
	poolErr := s.pool.do(r.Context(), func() {
		defer buf.release()
		out := getCBuf(total)
		defer putCBuf(out)
		workers := s.pencilWorkers(r.Context())
		stats, err := pencil.Run(r.Context(), pencil.Config{
			Shape:     shape,
			Inverse:   req.inverse,
			Workers:   workers,
			Transport: s.pencilTransport,
			MemCap:    s.cfg.PencilMemCap,
			Metrics:   s.pencilMetrics,
		}, pencil.SliceSource{Data: buf.complexes(req.input), Cols: shape.Cols}, pencil.SliceSink{Data: out.x, Cols: shape.Cols})
		if err != nil {
			var remote *cluster.RemoteError
			switch {
			case errors.As(err, &remote) && pencil.IsBusyMsg(remote.Msg):
				// The peer rejected on load or reclaimed state (memory
				// cap, job limit, TTL expiry) — transient and retryable,
				// not the caller's error.
				runErr = unavailable("%s", remote.Msg)
			case errors.As(err, &remote):
				// The peer rejected the run's shape; the same validation
				// would fail anywhere, so it is the caller's error.
				runErr = badRequest("%s", remote.Msg)
			case pencil.IsBusyMsg(err.Error()):
				// The same transient rejections from the in-process
				// worker (single-node mode has no RemoteError wrapper).
				runErr = unavailable("%s", err.Error())
			default:
				runErr = err
			}
			return
		}
		// JSON cannot carry an overflowed (non-finite) sample.
		if runErr = checkFinite(out.x); runErr != nil {
			return
		}
		resp = &FFT2DResponse{
			Rows:              req.rows,
			Cols:              req.cols,
			Depth:             req.depth,
			Inverse:           req.inverse,
			Distributed:       stats.Workers > 1,
			Workers:           stats.Workers,
			Bands:             stats.Bands,
			Waves:             stats.Waves,
			WireBytesSent:     stats.WireBytesSent,
			WireBytesRecv:     stats.WireBytesRecv,
			CommFloorBytes:    stats.CommFloorBytes,
			CommRooflineRatio: stats.RooflineRatio,
			Output:            fromComplex(out.x),
		}
	})
	if notQueued(poolErr) {
		buf.release()
	}
	if poolErr != nil {
		if errors.Is(poolErr, ErrDraining) {
			s.metrics.drained.Add(1)
		}
		writeError(w, poolErr)
		return
	}
	if runErr != nil {
		writeError(w, runErr)
		return
	}
	s.metrics.transforms.Add(1)
	writeJSON(w, resp)
}
