package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves on the machine: one temp
// directory and the child processes. close removes both on every exit
// path — a leaked ehnad would take a vCPU from every later run.
type sandbox struct {
	dir string

	mu       sync.Mutex
	children map[*child]struct{}
}

func newSandbox() (*sandbox, error) {
	dir, err := os.MkdirTemp("", "ehna-bench-")
	if err != nil {
		return nil, err
	}
	return &sandbox{dir: dir, children: make(map[*child]struct{})}, nil
}

func (sb *sandbox) close() {
	sb.mu.Lock()
	var live []*child
	for c := range sb.children {
		live = append(live, c)
	}
	sb.mu.Unlock()
	for _, c := range live {
		c.kill()
	}
	_ = os.RemoveAll(sb.dir) // best effort: the run's result is already decided
}

// subdir creates a fresh directory inside the sandbox.
func (sb *sandbox) subdir(name string) (string, error) {
	return os.MkdirTemp(sb.dir, name+"-")
}

// child is one spawned process, leader of its own process group.
type child struct {
	sb     *sandbox
	cmd    *exec.Cmd
	stderr *os.File      // the child's log, in the sandbox directory
	done   chan struct{} // closed once Wait has returned
}

// spawn starts bin in its own process group, which dies with the
// harness (Pdeathsig) as well as through kill.
func (sb *sandbox) spawn(env []string, bin string, args ...string) (*child, error) {
	log, err := os.CreateTemp(sb.dir, filepath.Base(bin)+"-*.log")
	if err != nil {
		return nil, err
	}
	c := &child{sb: sb, stderr: log, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Env = append(os.Environ(), env...)
	c.cmd.Stderr = c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	sb.mu.Lock()
	sb.children[c] = struct{}{}
	sb.mu.Unlock()
	go func() {
		_ = c.cmd.Wait() // the exit status of a SIGKILLed daemon carries nothing
		log.Close()
		close(c.done)
	}()
	return c, nil
}

// kill SIGKILLs the child's process group, unless the child has already
// been reaped (its pid may be someone else's by now), and waits for it.
func (c *child) kill() {
	if !c.exited() {
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: exited since the check, not yet reaped
	}
	<-c.done
	c.sb.mu.Lock()
	delete(c.sb.children, c)
	c.sb.mu.Unlock()
}

// exited reports whether the child has already been reaped.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// logTail is the end of the child's stderr, for error messages.
func (c *child) logTail() string {
	b, _ := os.ReadFile(c.stderr.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// rusage is the CPU time and peak RSS of a reaped child.
func (c *child) rusage() (cpuSec, rssMB float64) {
	<-c.done
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return tvSec(ru.Utime) + tvSec(ru.Stime), float64(ru.Maxrss) / 1024
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// 100 on every Linux the toolchain targets.
const clockTick = 100

// cpuSeconds reads utime+stime of a live process from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads VmHWM, the resident set's high-water mark, of a live
// process.
func peakRSSMB(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// residentMB reads VmRSS, the current resident set, of a live process.
func residentMB(pid int) (float64, error) { return statusMB(pid, "VmRSS:") }

// statusMB reads one kB-valued field of /proc/<pid>/status.
func statusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %s %w", pid, field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// hostCPU is one reading of the aggregate cpu line of /proc/stat.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostCPU
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			h.total += v
		}
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealShare is the fraction of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; one harness runs at a time, so the
// window is not contended.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// client is the one closed-loop client: one connection, one request in
// flight, response bodies read into a reused buffer.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// requestTimeout fails an op the daemon's own 2 s default deadline did
// not already answer.
const requestTimeout = 5 * time.Second

func newClient(port int) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{
		hc:   &http.Client{Transport: tr, Timeout: requestTimeout},
		base: "http://127.0.0.1:" + strconv.Itoa(port),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body. The
// body aliases the client's buffer: it is valid until the next call.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

func (c *client) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	return c.do(ctx, http.MethodPost, path, body)
}

func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	return c.do(ctx, http.MethodGet, path, nil)
}

// readyPoll is how often readiness is polled; it bounds the error of
// every boot time measured through it.
const readyPoll = time.Millisecond

// bootTimeout bounds one daemon boot.
const bootTimeout = 60 * time.Second

// awaitAnswer polls the daemon until probe — a /v1/neighbors body —
// gets a 200, and returns that first answer. A connection refused
// means "not listening yet"; a child that has exited is an error.
func (c *client) awaitAnswer(ctx context.Context, d *child, probe []byte) ([]byte, error) {
	deadline := time.Now().Add(bootTimeout)
	for {
		status, body, err := c.post(ctx, "/v1/neighbors", probe)
		if err == nil && status == http.StatusOK {
			return body, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if d.exited() {
			return nil, fmt.Errorf("daemon exited during boot:\n%s", d.logTail())
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon not answering after %v (last: status %d, err %v):\n%s", bootTimeout, status, err, d.logTail())
		}
		time.Sleep(readyPoll)
	}
}
