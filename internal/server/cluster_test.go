package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// ---- /readyz ----

func TestReadyzFlipsOnDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := testClient.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain: status %d", resp.StatusCode)
	}
	if body := decode[HealthResponse](t, resp); body.Status != "ready" {
		t.Fatalf("/readyz body = %+v", body)
	}

	s.StartDrain()

	resp, err = testClient.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain: status %d, want 503", resp.StatusCode)
	}
	if body := decode[HealthResponse](t, resp); body.Status != "draining" {
		t.Fatalf("/readyz drain body = %+v", body)
	}

	// Liveness is drain-invariant: orchestrators must not restart a
	// process that is merely finishing its in-flight work.
	resp, err = testClient.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain: status %d, want 200", resp.StatusCode)
	}
}

// ---- cluster-mode serving ----

// serverCluster is n fftd server instances joined into one ring, each
// with its own HTTP front end, cluster listener, registry and client —
// the in-process equivalent of n `fftd -cluster -peers=...` processes.
type serverCluster struct {
	servers []*Server
	https   []*httptest.Server
	nodes   []*cluster.Node
}

func startServerCluster(t *testing.T, n int, cfg Config) *serverCluster {
	t.Helper()
	sc := &serverCluster{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		s := New(cfg)
		node, err := cluster.Listen("127.0.0.1:0", cluster.NodeConfig{
			Exec:   s.ClusterExecutor(),
			Ready:  func() bool { return !s.Draining() },
			Pencil: s.PencilWorker(),
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = node.Addr()
		sc.servers = append(sc.servers, s)
		sc.nodes = append(sc.nodes, node)
	}
	for i, s := range sc.servers {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		reg := cluster.NewRegistry(addrs[i], peers, cluster.RegistryConfig{})
		client, err := cluster.NewClient(reg, cluster.ClientConfig{
			Self:  addrs[i],
			Local: s.ClusterExecutor(),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.SetCluster(client)
		sc.https = append(sc.https, httptest.NewServer(s.Handler()))
		t.Cleanup(client.Close)
	}
	t.Cleanup(func() {
		for i := range sc.servers {
			sc.https[i].Close()
			_ = sc.nodes[i].Close()
			sc.servers[i].Close()
		}
	})
	return sc
}

// clusterBatch builds a 64-transform batch spanning sizes and kinds, so
// shapes land on different ring owners.
func clusterBatch() []TransformSpec {
	rng := rand.New(rand.NewSource(99))
	specs := make([]TransformSpec, 64)
	for i := range specs {
		n := 64 << (uint(i) % 5)
		switch i % 4 {
		case 0:
			specs[i] = TransformSpec{Input: randComplexInput(rng, n)}
		case 1:
			specs[i] = TransformSpec{Input: randComplexInput(rng, n), Inverse: true}
		case 2:
			specs[i] = TransformSpec{Input: randComplexInput(rng, n), NoReorder: true}
		default:
			re := make([]float64, n)
			for j := range re {
				re[j] = rng.NormFloat64()
			}
			specs[i] = TransformSpec{RealInput: re}
		}
	}
	return specs
}

func randComplexInput(rng *rand.Rand, n int) []Complex {
	in := make([]Complex, n)
	for i := range in {
		in[i] = Complex{rng.NormFloat64(), rng.NormFloat64()}
	}
	return in
}

// TestClusterServesBatchBitIdentical is the tentpole acceptance check:
// a 64-transform batch served through a 3-node ring must come back
// bit-identical to the same batch served by a single-node fftd,
// because remote execution reaches the exact same plan-cache code path.
func TestClusterServesBatchBitIdentical(t *testing.T) {
	sc := startServerCluster(t, 3, Config{})
	_, single := newTestServer(t, Config{})

	specs := clusterBatch()
	req := FFTRequest{Transforms: specs}

	resp := postJSON(t, sc.https[0].URL+"/v1/fft", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster batch status = %d", resp.StatusCode)
	}
	got := decode[FFTResponse](t, resp)

	resp = postJSON(t, single.URL+"/v1/fft", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single batch status = %d", resp.StatusCode)
	}
	want := decode[FFTResponse](t, resp)

	if got.Batch != want.Batch || len(got.Results) != len(want.Results) {
		t.Fatalf("shape mismatch: cluster %d/%d vs single %d/%d",
			got.Batch, len(got.Results), want.Batch, len(want.Results))
	}
	for i := range got.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Error != "" || w.Error != "" {
			t.Fatalf("transform %d errored: cluster %q single %q", i, g.Error, w.Error)
		}
		if g.N != w.N || len(g.Output) != len(w.Output) {
			t.Fatalf("transform %d shape: cluster n=%d/%d single n=%d/%d",
				i, g.N, len(g.Output), w.N, len(w.Output))
		}
		for j := range g.Output {
			if g.Output[j] != w.Output[j] {
				t.Fatalf("transform %d sample %d: cluster %v != single %v",
					i, j, g.Output[j], w.Output[j])
			}
		}
	}

	// The ring must actually have forwarded work: a 3-node cluster where
	// every shape happens to land on the entry node proves nothing.
	m := sc.servers[0].Cluster().Metrics()
	if m.Forwarded == 0 {
		t.Fatal("no transforms were forwarded; ring routing is inert")
	}
	if m.Local == 0 {
		t.Fatal("no transforms ran locally; self-shortcut is broken")
	}
}

// TestClusterMetricsExposed asserts /metrics carries the routing
// counters in cluster mode (JSON shape satellite).
func TestClusterMetricsExposed(t *testing.T) {
	sc := startServerCluster(t, 2, Config{})

	resp := postJSON(t, sc.https[0].URL+"/v1/fft", FFTRequest{Transforms: clusterBatch()[:8]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	drainClose(resp)

	r, err := testClient.Get(sc.https[0].URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var snap struct {
		Cluster *cluster.ClientMetrics `json:"cluster"`
	}
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Cluster == nil {
		t.Fatal("/metrics has no cluster section in cluster mode")
	}
	if snap.Cluster.Local+snap.Cluster.Forwarded == 0 {
		t.Fatalf("cluster counters empty: %+v", snap.Cluster)
	}

	// Single-node snapshots must omit the section entirely.
	_, single := newTestServer(t, Config{})
	r2, err := testClient.Get(single.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(r2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["cluster"]; present {
		t.Fatal("single-node /metrics leaked a cluster section")
	}
}

// TestClusterRemoteValidationMapsTo400 exercises the RemoteError → 400
// mapping: a transform the remote peer rejects must surface as a
// per-transform error, not a 5xx. Non-power-of-two complex transforms
// are now served via Bluestein, so the shape every node still rejects
// identically at plan time is a non-power-of-two real transform.
func TestClusterRemoteValidationMapsTo400(t *testing.T) {
	sc := startServerCluster(t, 2, Config{})
	bad := TransformSpec{RealInput: make([]float64, 48)} // not a power of two
	resp := postJSON(t, sc.https[0].URL+"/v1/fft", FFTRequest{TransformSpec: bad})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (per-transform failures keep the batch 200)", resp.StatusCode)
	}
	body := decode[FFTResponse](t, resp)
	if len(body.Results) != 1 || body.Results[0].Error == "" {
		t.Fatalf("invalid transform produced no error: %+v", body.Results)
	}
}

// TestPromShardAndClusterFamilies asserts the Prometheus exposition
// carries the per-shard plan-cache families (always) and the cluster
// routing counters (cluster mode only), with shard labels in index
// order so scrapes stay deterministic.
func TestPromShardAndClusterFamilies(t *testing.T) {
	sc := startServerCluster(t, 2, Config{})
	resp := postJSON(t, sc.https[0].URL+"/v1/fft", FFTRequest{Transforms: clusterBatch()[:8]})
	resp.Body.Close()

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

	for _, family := range []string{
		"fftd_plan_cache_shard_size", "fftd_plan_cache_shard_capacity",
		"fftd_plan_cache_shard_evictions_total",
		"fftd_cluster_local_total", "fftd_cluster_forwarded_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	// Shard labels appear in index order.
	if i0, i1 := strings.Index(text, `shard="0"`), strings.Index(text, `shard="1"`); i0 < 0 || i1 < 0 || i0 > i1 {
		t.Errorf("shard labels missing or out of order (shard0 at %d, shard1 at %d)", i0, i1)
	}
}

// TestClusterDrainStopsRouting: after StartDrain, a peer's heartbeat
// sees ready=false and routes away from the draining node.
func TestClusterDrainStopsRouting(t *testing.T) {
	sc := startServerCluster(t, 2, Config{})
	// Start heartbeats from node 0's registry against node 1.
	c0 := sc.servers[0].Cluster()
	c0.Registry().Start(10*time.Millisecond, c0.Ping)

	sc.servers[1].StartDrain()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if c0.Registry().Ring().Size() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining peer never left node 0's ring")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
