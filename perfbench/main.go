// Command perfbench is the end-to-end benchmark of the fftd service.
//
// Every run builds cmd/fftd, starts fresh daemons as child processes,
// one at a time, drives each over loopback HTTP from a closed loop of
// two clients and checks every answer. Request bodies and reference
// answers are encoded before any daemon starts, so the generator's own
// work does not set the pace. Run it from a checkout of the repository:
//
//	bash perfbench/run.sh --workload fft1d --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: throughput, client
// latency, daemon CPU per request, daemon resident set and set-up time. With
// --trace 1 it runs the workload untraced and then traced, reads the
// daemon's /metrics counters around the traced phase, replays the
// workload in-process through the server handler and each layer's
// public functions under internal/obs spans, writes the spans as a
// Chrome trace into .perfbench-build/, and reports the per-layer split.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// perfbench/repeat.py runs it repeatedly and prints each metric's median
// and interquartile spread.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

const (
	// warmup is untimed traffic after each set-up: a steady heap and
	// connection pool before the measured phase.
	warmup = 500 * time.Millisecond
	// minP99Samples gives the p99 ten samples beyond it.
	minP99Samples = 1000
	// subPhases splits the measured time.
	subPhases = 9
	// maxPhases bounds the phases run when some are repeated for steal,
	// and extraPhaseSpan the measured seconds' multiple after which no
	// repeat starts; with both a run stays within the time the
	// benchmark's runs may take.
	maxPhases      = 13
	extraPhaseSpan = 1.6
	// maxSteal is the host steal, as a share of one CPU, above which a
	// phase counts as disturbed. Below it throughput moved under 3%.
	maxSteal = 0.03
	// runBudget keeps a run inside the three minutes a run may take.
	runBudget = 170 * time.Second
)

// bench is one invocation's state.
type bench struct {
	out   string // binaries, logs and span files
	fftd  string // built daemon binary
	wl    *workload
	hc    *http.Client
	live  *daemon // the running fftd; nil between phases
	tally tally
	next  atomic.Uint64 // request sequence number; entry next%len(pool)
	// want holds each pool entry's verified answer; nil until verified.
	want [][]byte
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	root := flag.String("root", ".", "repository root")
	out := flag.String("out", ".perfbench-build", "directory for binaries, logs and span files")
	name := flag.String("workload", "", "fft1d, fft2d or simulate")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()

	b, err := newBench(ctx, *root, *out, *name, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	d := time.Duration(*seconds) * time.Second
	var ms metrics
	if *traced == 1 {
		ms, err = b.tracedRun(ctx, d, *seed)
	} else {
		ms, err = b.measuredRun(ctx, d)
	}
	b.stopDaemon()
	if pids := leftovers(b.fftd); len(pids) > 0 {
		err = fmt.Errorf("fftd processes left behind: %v", pids)
	}
	if err == nil {
		err = ms.finite()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{
		Attempted: b.tally.attempted.Load(),
		Failed:    b.tally.failed.Load(),
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, m := range ms {
		fmt.Printf("%-32s %14.6g %s\n", m.name, m.Value, m.Unit)
		res.Metrics[m.name] = m.metric
	}
	fmt.Printf("%s: attempted %d, failed %d\n", b.wl.name, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// newBench builds the workload's inputs and cmd/fftd; no daemon runs
// yet.
func newBench(ctx context.Context, root, out, name string, seed int64) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if !filepath.IsAbs(out) {
		out = filepath.Join(root, out)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	wl, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	b := &bench{
		out: out, wl: wl,
		fftd: filepath.Join(out, "fftd"),
		want: make([][]byte, len(wl.pool)),
		hc: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true},
		},
	}
	build := exec.CommandContext(ctx, "go", "build", "-o", b.fftd, "./cmd/fftd")
	build.Dir = root
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("build cmd/fftd: %w", err)
	}
	return b, nil
}

// selfTest corrupts one digit of a verified answer, feeds it through
// the counting path the timed phases use, and requires it to be counted
// as failed while the intact answer passes.
func selfTest(good []byte) error {
	bad := append([]byte(nil), good...)
	i := bytes.IndexAny(bad[len(bad)/2:], "0123456789")
	if i < 0 {
		return fmt.Errorf("self-test: no digit to corrupt")
	}
	i += len(bad) / 2
	bad[i] = '0' + (bad[i]-'0'+1)%10
	var t tally
	want := [][]byte{good}
	if !t.record(want, 0, http.StatusOK, good, nil) || t.record(want, 0, http.StatusOK, bad, nil) ||
		t.attempted.Load() != 2 || t.failed.Load() != 1 {
		return fmt.Errorf("self-test: a corrupted answer was not counted as failed")
	}
	return nil
}

// stopDaemon stops the running daemon, if any, and waits for it.
func (b *bench) stopDaemon() {
	if b.live != nil {
		b.live.stop()
		b.live = nil
	}
}

// setup starts a fresh daemon and times exec through /readyz answering
// 200 to the first verified answer for each pool entry. The
// first set-up of a run fully checks each answer against its reference
// and keeps it; later ones must reproduce it byte for byte.
func (b *bench) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b.fftd, filepath.Join(b.out, "fftd.log"))
	if err != nil {
		return 0, err
	}
	b.live = d
	if err := d.waitReady(ctx, b.hc); err != nil {
		return 0, err
	}
	url := d.url + b.wl.path
	var buf bytes.Buffer
	for i := range b.wl.pool {
		r := &b.wl.pool[i]
		status, _, err := post(ctx, b.hc, url, r.body, &buf)
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if b.want[i] != nil {
			b.tally.record(b.want, i, status, buf.Bytes(), err)
			continue
		}
		b.tally.attempted.Add(1)
		if err == nil && status == http.StatusOK {
			err = r.check(buf.Bytes())
		} else if err == nil {
			err = fmt.Errorf("status %d: %s", status, buf.Bytes())
		}
		if err != nil {
			// The entry stays unverified, so every later answer to it
			// counts as failed too.
			b.tally.failed.Add(1)
			fmt.Fprintf(os.Stderr, "perfbench: %s %s: wrong answer: %v\n", b.wl.name, r.label, err)
			continue
		}
		b.want[i] = append([]byte(nil), buf.Bytes()...)
	}
	elapsed := time.Since(t0)
	if b.want[0] != nil {
		if err := selfTest(b.want[0]); err != nil {
			return 0, err
		}
	}
	return elapsed, nil
}

// measuredRun reports the end-to-end metrics. The measured time is
// split into subPhases phases, and each phase is served by a fresh
// daemon: it starts one (one timed set-up), warms it up untimed and then
// drives the closed loop for d/subPhases. So the set-ups spread over the
// whole run, and no one daemon process sets every phase's figures. A
// phase during which the hypervisor stole more than maxSteal of a CPU
// (a burst of load from outside this machine) is repeated, up to
// maxPhases phases in all and while the run is younger than
// extraPhaseSpan times d, and the subPhases phases with the least steal
// are kept. Throughput, p50 and CPU per request are medians over
// the kept phases, and the resident set pools its readings over them.
// setup_s is the median of the subPhases set-ups with the least steal
// while they ran.
//
// The p99 pools every answer of the run, in any phase, during which the
// host stole no CPU time, and at least minP99Samples answers: when too
// few answers saw no steal, the least-stolen make up the count. A
// stolen slice of a CPU stalls the requests in flight for its length,
// and those stalls, not the daemon, set an unfiltered p99.
func (b *bench) measuredRun(ctx context.Context, d time.Duration) (metrics, error) {
	var (
		subs  []subPhase
		clean int
		hwm   float64
		sent  uint64 // requests sent in every phase, kept or not
		all   []timedSample
	)
	gen0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	repeatUntil := time.Now().Add(time.Duration(extraPhaseSpan * float64(d)))
	for len(subs) < subPhases || (clean < subPhases && len(subs) < maxPhases && time.Now().Before(repeatUntil)) {
		sp, err := b.measuredPhase(ctx, d/subPhases)
		if err != nil {
			return nil, err
		}
		agg := latencies(sp.phase).Aggregate()
		fmt.Printf("  phase: set-up %6.3f s (steal %5.1f%%)  %6.1f 1/s  p50 %7.3f ms  p99 %7.3f ms  cpu %7.3f ms/req  steal %5.1f%%\n",
			sp.setup, 100*sp.setupSteal, sp.rate(), agg.P50MS, agg.P99MS, sp.cpu, 100*sp.steal)
		if sp.steal < maxSteal {
			clean++
		}
		subs = append(subs, sp)
		hwm = math.Max(hwm, sp.hwm)
		sent += sp.last - sp.first
		for _, s := range sp.samples {
			all = append(all, timedSample{s, stolenDuring(sp.host, s.end.Add(-s.lat), s.end)})
		}
	}
	gen1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}

	var setups []float64
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].setupSteal < subs[j].setupSteal })
	for _, sp := range subs[:subPhases] {
		setups = append(setups, sp.setup)
	}
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].steal < subs[j].steal })
	subs = subs[:subPhases]
	var tput, p50, cpu, rss []float64
	for _, sp := range subs {
		tput = append(tput, sp.rate())
		p50 = append(p50, latencies(sp.phase).Aggregate().P50MS)
		cpu = append(cpu, sp.cpu)
		for _, h := range sp.host {
			rss = append(rss, h.rssMB)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].stolen < all[j].stolen })
	untouched := sort.Search(len(all), func(i int) bool { return all[i].stolen > 0 })
	n := min(max(untouched, minP99Samples), len(all))
	tail := phase{samples: make([]sample, n)}
	for i := range tail.samples {
		tail.samples[i] = all[i].sample
	}
	pooled := latencies(tail)
	printCohorts(pooled, fmt.Sprintf("%d of %d answers, %d untouched by steal", n, len(all), untouched))
	fmt.Printf("  generator cpu %.3f ms per request sent in the phases, set-ups and warm-ups included\n", ms(gen1-gen0)/float64(sent))
	fmt.Printf("  daemon peak RSS (VmHWM) %.1f MB\n", hwm)
	return metrics{
		{"throughput_rps", metric{median(tput), "1/s"}},
		{"latency_p50_ms", metric{median(p50), "ms"}},
		{"latency_p99_ms", metric{pooled.Aggregate().P99MS, "ms"}},
		{"cpu_ms_per_req", metric{median(cpu), "ms"}},
		{"rss_mb", metric{median(rss), "MB"}},
		{"setup_s", metric{median(setups), "s"}},
	}, nil
}

// timedSample is an answer with the host steal while it was in flight.
type timedSample struct {
	sample
	stolen time.Duration
}

// subPhase is one measured phase and what was read around it.
type subPhase struct {
	phase
	setup      float64      // seconds of the phase's set-up
	setupSteal float64      // host steal during the set-up, share of one CPU
	cpu        float64      // daemon CPU ms per request
	steal      float64      // host steal, share of one CPU
	host       []hostSample // monitor readings over the phase
	hwm        float64      // daemon VmHWM, MiB
}

// rate is the phase's verified answers per second.
func (sp subPhase) rate() float64 { return float64(sp.ok) / sp.elapsed.Seconds() }

// measuredPhase starts a fresh daemon, warms it up and drives one
// measured phase of length d.
func (b *bench) measuredPhase(ctx context.Context, d time.Duration) (subPhase, error) {
	var sp subPhase
	b.stopDaemon()
	steal0, t0 := hostSteal(), time.Now()
	s, err := b.setup(ctx)
	if err != nil {
		return sp, err
	}
	sp.setup = s.Seconds()
	sp.setupSteal = float64(hostSteal()-steal0) / float64(time.Since(t0))
	url := b.live.url
	if _, err := b.drive(ctx, url, warmup, 0, nil); err != nil {
		return sp, err
	}
	cpu0, err := b.live.cpuTime()
	if err != nil {
		return sp, err
	}
	stop := make(chan struct{})
	type monitorResult struct {
		host []hostSample
		err  error
	}
	monc := make(chan monitorResult, 1)
	go func() {
		host, err := b.live.monitor(stop)
		monc <- monitorResult{host, err}
	}()
	sp.phase, err = b.drive(ctx, url, d, (minP99Samples+subPhases-1)/subPhases, nil)
	close(stop)
	mon := <-monc
	if err != nil {
		return sp, err
	}
	if mon.err != nil {
		return sp, mon.err
	}
	sp.host = mon.host
	first, last := sp.host[0], sp.host[len(sp.host)-1]
	sp.steal = float64(last.steal-first.steal) / float64(last.at.Sub(first.at))
	cpu1, err := b.live.cpuTime()
	if err != nil {
		return sp, err
	}
	sp.cpu = ms(cpu1-cpu0) / float64(sp.last-sp.first)
	sp.hwm, err = b.live.memMB("VmHWM")
	return sp, err
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 0 {
		return (s[m-1] + s[m]) / 2
	}
	return s[m]
}

// printCohorts prints per-cohort latency; what says which answers.
func printCohorts(lat *obs.CohortLatency, what string) {
	for _, c := range lat.Snapshot() {
		fmt.Printf("  cohort %-10s n=%-6d p50 %8.3f ms  p99 %8.3f ms\n", c.Cohort, c.Count, c.P50MS, c.P99MS)
	}
	agg := lat.Aggregate()
	fmt.Printf("  all        n=%-6d p50 %8.3f ms  p99 %8.3f ms (%s)\n", agg.Count, agg.P50MS, agg.P99MS, what)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// namedMetric keeps report order stable.
type namedMetric struct {
	name string
	metric
}

type metrics []namedMetric

func (m metrics) finite() error {
	for _, x := range m {
		if math.IsNaN(x.Value) || math.IsInf(x.Value, 0) {
			return fmt.Errorf("metric %s is %v", x.name, x.Value)
		}
	}
	return nil
}
