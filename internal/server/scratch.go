package server

import "sync"

// cbuf is a pooled complex scratch buffer sized for one transform's
// output. The transform handlers are the service's hot path; pooling
// the spectrum buffer keeps steady-state request processing off the
// allocator for the common case of repeated transform sizes. (The
// input samples live in the request's pooled reqBuf.)
type cbuf struct {
	x []complex128
}

var cbufPool = sync.Pool{New: func() any { return new(cbuf) }}

// getCBuf returns a complex scratch buffer sized to n with stale
// contents; callers must overwrite it before reading it.
func getCBuf(n int) *cbuf {
	b := cbufPool.Get().(*cbuf)
	if cap(b.x) < n {
		b.x = make([]complex128, n)
	}
	b.x = b.x[:n]
	return b
}

// putCBuf returns a complex scratch buffer to the pool. The caller must
// not keep references to b.x past this call.
func putCBuf(b *cbuf) { cbufPool.Put(b) }

// rbuf is a pooled real-sample scratch buffer: the real inverse path
// synthesizes n float64 samples before widening them into the complex
// response, and pooling the intermediate keeps that path off the
// allocator too.
type rbuf struct {
	x []float64
}

var rbufPool = sync.Pool{New: func() any { return new(rbuf) }}

// getRBuf returns a real scratch buffer sized to n with stale contents.
func getRBuf(n int) *rbuf {
	b := rbufPool.Get().(*rbuf)
	if cap(b.x) < n {
		b.x = make([]float64, n)
	}
	b.x = b.x[:n]
	return b
}

// putRBuf returns a real scratch buffer to the pool. The caller must
// not keep references to b.x past this call.
func putRBuf(b *rbuf) { rbufPool.Put(b) }
