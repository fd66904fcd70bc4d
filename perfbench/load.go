package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// clients is the closed loop's size: each client sends its next request
// only after the previous answer arrived, like fftd's callers, and two
// match the two CPUs the benchmark was tuned on.
const clients = 2

// tally counts every workload operation a run attempts; a transport
// error, a non-200 status or a wrong answer is a failed operation.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// record counts one answer to pool entry idx and reports whether it was
// right: during timing an answer is right when it is byte-identical to
// the answer verified for that payload before timing began.
func (t *tally) record(want [][]byte, idx, status int, body []byte, err error) bool {
	t.attempted.Add(1)
	ok := err == nil && status == http.StatusOK && bytes.Equal(body, want[idx])
	if !ok {
		t.failed.Add(1)
	}
	return ok
}

// post sends one request body and reads the answer into buf.
func post(ctx context.Context, hc *http.Client, url string, body []byte, buf *bytes.Buffer) (status int, rid string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Request-ID"), nil
}

// phase is one closed-loop stretch of traffic.
type phase struct {
	ok      int64         // verified answers
	elapsed time.Duration // until the last client's last answer
	samples []sample      // client latency of every answer
	// issued is the range [first, last) of the run's request sequence
	// numbers sent in the phase; entry i%len(pool) was sent for each.
	first, last uint64
}

// sample is one answer's client-side latency, keyed by its cohort.
type sample struct {
	label string
	lat   time.Duration
	end   time.Time // when the answer arrived
}

// latencies gathers the samples of phases into one recorder.
func latencies(phases ...phase) *obs.CohortLatency {
	lat := obs.NewCohortLatency()
	for _, ph := range phases {
		for _, s := range ph.samples {
			lat.Observe(s.label, s.lat)
		}
	}
	return lat
}

// drive runs the closed loop against url for at least d, and on until
// minSamples answers have arrived (at most 2d). With tr non-nil every
// request gets a span carrying its sequence number and the daemon's
// X-Request-ID.
func (b *bench) drive(ctx context.Context, url string, d time.Duration, minSamples int64, tr *obs.Tracer) (phase, error) {
	ph := phase{first: b.next.Load()}
	start := time.Now()
	soft, hard := start.Add(d), start.Add(2*d)
	target := url + b.wl.path
	var (
		ok      atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		mu      sync.Mutex
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []sample
			defer func() {
				mu.Lock()
				ph.samples = append(ph.samples, mine...)
				mu.Unlock()
			}()
			for ctx.Err() == nil {
				if now := time.Now(); now.After(hard) || (now.After(soft) && ok.Load() >= minSamples) {
					return
				}
				seq := b.next.Add(1) - 1
				idx := int(seq % uint64(len(b.wl.pool)))
				r := &b.wl.pool[idx]
				sp := tr.Start(b.wl.route).SetCat("client")
				t0 := time.Now()
				status, rid, err := post(ctx, b.hc, target, r.body, &buf)
				end := time.Now()
				lat := end.Sub(t0)
				if sp != nil {
					sp.SetDetail(fmt.Sprintf("req=%d %s rid=%s", seq, r.label, rid)).End()
				}
				if b.tally.record(b.want, idx, status, buf.Bytes(), err) {
					ok.Add(1)
				} else if ctx.Err() == nil {
					errOnce.Do(func() {
						fmt.Fprintf(os.Stderr, "perfbench: %s %s (req %d) failed: status %d, err %v\n", b.wl.route, r.label, seq, status, err)
					})
				}
				mine = append(mine, sample{r.label, lat, end})
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.ok = ok.Load()
	ph.last = b.next.Load()
	return ph, ctx.Err()
}
