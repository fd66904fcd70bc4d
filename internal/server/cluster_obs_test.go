package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// promValue extracts the value of the first sample line whose name (and
// optional label set) matches prefix exactly.
func promValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, prefix+" "), 64)
		if err != nil {
			t.Fatalf("sample %q unparseable: %v", line, err)
		}
		return v
	}
	t.Fatalf("exposition has no sample %q", prefix)
	return 0
}

// TestClusterRooflineFamilies asserts the communication-roofline and
// hedge-outcome Prometheus families appear in cluster mode, lint clean,
// and that the roofline ratio is ≥ 1 once transforms have been
// forwarded — achieved wire bytes include framing the analytical floor
// does not, so a ratio below 1 means the accounting is broken.
func TestClusterRooflineFamilies(t *testing.T) {
	sc := startServerCluster(t, 2, Config{})
	resp := postJSON(t, sc.https[0].URL+"/v1/fft", FFTRequest{Transforms: clusterBatch()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if m := sc.servers[0].Cluster().Metrics(); m.Forwarded == 0 {
		t.Fatal("nothing forwarded; roofline counters untestable")
	}

	req, err := http.NewRequest(http.MethodGet, sc.https[0].URL+"/metrics", nil)
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
	text := buf.String()

	if errs := obs.LintExposition(strings.NewReader(text)); len(errs) > 0 {
		t.Fatalf("exposition fails lint: %v", errs)
	}
	for _, outcome := range []string{"won", "lost", "canceled"} {
		if !strings.Contains(text, `fftd_cluster_hedge_outcome_total{outcome="`+outcome+`"}`) {
			t.Errorf("exposition missing hedge outcome %q", outcome)
		}
	}

	sent := promValue(t, text, `fftd_cluster_comm_bytes_total{direction="sent"}`)
	recv := promValue(t, text, `fftd_cluster_comm_bytes_total{direction="received"}`)
	if sent <= 0 || recv <= 0 {
		t.Fatalf("comm bytes sent=%v received=%v, want both > 0 after forwarding", sent, recv)
	}
	if ratio := promValue(t, text, "fftd_comm_roofline_ratio"); ratio < 1.0 {
		t.Fatalf("fftd_comm_roofline_ratio = %v, want >= 1.0", ratio)
	}
}

// TestClusterSlowTraceRemoteSpans asserts GET /v1/debug/slow surfaces
// the cluster half of a forwarded request: the captured trace carries
// the cross-node trace ID, grafted remote child spans and per-request
// wire byte counts, and the body reports the serving path's roofline
// ratio.
func TestClusterSlowTraceRemoteSpans(t *testing.T) {
	sc := startServerCluster(t, 2, Config{TraceSampleEvery: 1})
	resp := postJSON(t, sc.https[0].URL+"/v1/fft", FFTRequest{Transforms: clusterBatch()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	drainClose(resp)
	id := resp.Header.Get("X-Request-ID")

	r, err := testClient.Get(sc.https[0].URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var slow SlowTraces
	if err := json.NewDecoder(r.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	if slow.CommRooflineRatio < 1.0 {
		t.Errorf("debug/slow comm_roofline_ratio = %v, want >= 1.0", slow.CommRooflineRatio)
	}
	var captured *CapturedTrace
	for i := range slow.Traces {
		if slow.Traces[i].RequestID == id {
			captured = &slow.Traces[i]
		}
	}
	if captured == nil {
		t.Fatalf("request %s not in slow ring", id)
	}
	if captured.TraceID == "" {
		t.Error("captured trace has no cross-node trace ID")
	}
	if captured.RemoteSpans == 0 {
		t.Fatal("captured trace has no remote child spans (satellite regression)")
	}
	if captured.WireBytesSent <= 0 || captured.WireBytesRecv <= 0 {
		t.Errorf("captured trace wire bytes sent=%d recv=%d, want both > 0",
			captured.WireBytesSent, captured.WireBytesRecv)
	}
	remote := 0
	for _, sp := range captured.Spans {
		if sp.Remote {
			remote++
			if sp.Cat != obs.CatCluster && sp.Cat != obs.CatCompute && sp.Cat != obs.CatPlan {
				t.Errorf("remote span %q has unexpected cat %q", sp.Name, sp.Cat)
			}
		}
	}
	if remote != captured.RemoteSpans {
		t.Errorf("span list has %d remote spans, rollup says %d", remote, captured.RemoteSpans)
	}
}

// TestWideEventLogLine asserts a traced request's log record is the
// wide event: one line rolling up span counts, stage timings by
// category and wire byte totals.
func TestWideEventLogLine(t *testing.T) {
	var logBuf bytes.Buffer
	s, ts := newTestServer(t, Config{
		Workers:          1,
		TraceSampleEvery: 1,
		Logger:           slog.New(slog.NewJSONHandler(&logBuf, nil)),
	})
	_ = s
	resp := postBody(t, ts.URL+"/v1/fft", `{"input": [[1,0],[0,0]]}`)
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")

	var rec struct {
		Msg     string             `json:"msg"`
		ID      string             `json:"id"`
		Status  int                `json:"status"`
		Spans   int                `json:"spans"`
		Remote  int                `json:"remote_spans"`
		StageMS map[string]float64 `json:"stage_ms"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v (%q)", err, logBuf.String())
	}
	if rec.Msg != "request" || rec.ID != id || rec.Status != 200 {
		t.Fatalf("log record = %+v", rec)
	}
	if rec.Spans < 2 {
		t.Errorf("wide event rolled up %d spans, want >= 2 (root + transform)", rec.Spans)
	}
	if rec.StageMS[obs.CatServer] <= 0 {
		t.Errorf("wide event stage_ms missing server stage: %v", rec.StageMS)
	}
	if _, ok := rec.StageMS[obs.CatCompute]; !ok {
		t.Errorf("wide event stage_ms missing compute stage: %v", rec.StageMS)
	}
}
