package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the /proc/<pid>/stat time unit (USER_HZ), 100 on Linux.
const clockTick = 10 * time.Millisecond

// daemon is one fftd child process. The benchmark stops it on every
// exit path (success, failure, timeout, interrupt), so no fftd is left
// behind.
type daemon struct {
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:<port>
	log  string
	done chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches a single-node fftd on a free loopback port.
func startDaemon(bin, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	// Request logs go to /dev/null; start-up messages and errors to the
	// log file, quoted when the daemon dies early.
	cmd.Stderr = logFile
	// If the benchmark itself is killed, the kernel kills the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	logFile.Close()
	if err != nil {
		return nil, fmt.Errorf("start fftd: %w", err)
	}
	d := &daemon{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed daemon always exits non-zero
		close(d.done)
	}()
	return d, nil
}

// waitReady polls the daemon's /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			msg, _ := os.ReadFile(d.log)
			return fmt.Errorf("fftd %s exited before ready: %s", d.url, bytes.TrimSpace(msg))
		case <-ctx.Done():
			return fmt.Errorf("fftd %s not ready: %w", d.url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
}

// leftovers lists the PIDs of live processes running bin; after stop it
// must be empty.
func leftovers(bin string) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil {
			continue
		}
		if argv0, _, _ := bytes.Cut(cmdline, []byte{0}); string(argv0) == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// cpuTime is a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis, starting at field 3 (state).
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	fields := strings.Fields(string(b[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// statusKB reads a kB field of /proc/<pid>/status, such as VmRSS.
func statusKB(pid int, field string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// cpuTime is the daemon's user+system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) { return cpuTime(d.cmd.Process.Pid) }

// memMB reads a /proc/<pid>/status kB field of the daemon, in MiB.
func (d *daemon) memMB(field string) (float64, error) {
	kb, err := statusKB(d.cmd.Process.Pid, field)
	return float64(kb) / 1024, err
}

// hostSample is one reading of the monitor.
type hostSample struct {
	at    time.Time
	steal time.Duration // hostSteal at that moment
	rssMB float64       // the daemon's VmRSS
}

// monitor reads the host steal and the daemon's VmRSS every
// monitorInterval from its call until stop is closed, and once more
// then, so the readings bracket the whole stretch. The median resident
// set is the steady footprint under load; the peak (VmHWM) is one rare
// moment's maximum and spreads widely from run to run.
func (d *daemon) monitor(stop <-chan struct{}) ([]hostSample, error) {
	var out []hostSample
	tick := time.NewTicker(monitorInterval)
	defer tick.Stop()
	for {
		mb, err := d.memMB("VmRSS")
		if err != nil {
			return nil, err
		}
		out = append(out, hostSample{time.Now(), hostSteal(), mb})
		select {
		case <-stop:
			mb, err := d.memMB("VmRSS")
			if err != nil {
				return nil, err
			}
			return append(out, hostSample{time.Now(), hostSteal(), mb}), nil
		case <-tick.C:
		}
	}
}

// monitorInterval is the monitor's sampling period.
const monitorInterval = 100 * time.Millisecond

// stolenDuring is the host steal over the monitor intervals that cover
// [from, to]. The readings must be in time order.
func stolenDuring(readings []hostSample, from, to time.Time) time.Duration {
	// i0: the last reading at or before from; i1: the first at or
	// after to (clamped to the readings taken).
	i0 := sort.Search(len(readings), func(i int) bool { return readings[i].at.After(from) }) - 1
	i1 := sort.Search(len(readings), func(i int) bool { return !readings[i].at.Before(to) })
	i0 = max(i0, 0)
	i1 = min(i1, len(readings)-1)
	return readings[i1].steal - readings[i0].steal
}

// promSample is one parsed Prometheus exposition: series (name plus
// labels, exactly as exposed) to value.
type promSample map[string]float64

// scrape reads a daemon's Prometheus /metrics.
func scrape(ctx context.Context, hc *http.Client, url string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %q: %w", url, line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series whose name (before any label set) is name.
func (p promSample) sum(name string) float64 {
	var s float64
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// hostSteal is the machine's total CPU steal time from /proc/stat: time
// the hypervisor ran something else while this machine's CPUs wanted to
// run.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	steal, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(steal) * clockTick
}
