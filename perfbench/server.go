package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tpjoin/internal/client"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// serverProc is one tpserverd child process serving on loopback.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed once cmd.Wait returned
	once sync.Once
}

// startServer launches bin with its working directory set to dir (so
// \loadb takes paths relative to it) and waits until it accepts a session.
func startServer(bin, dir string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "tpserverd.log"))
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	cmd := exec.Command(bin, "-addr", addr, "-no-preload", "-drain-timeout", "2s")
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop ourselves carries no information
		close(p.done)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c, err := client.DialContext(ctx, addr)
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("server did not come up: %w", err)
	}
	c.Close()
	return p, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// dial opens one session.
func (p *serverProc) dial() (*client.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return client.DialContext(ctx, p.addr)
}

// stop drains the server with SIGTERM, kills it if it is still there after
// five seconds, and returns once the process has ended. Later calls do
// nothing.
func (p *serverProc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	})
}

// cpu returns the server's user+system CPU time so far.
func (p *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis start at field 3.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparsable /proc stat %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the server's peak resident set size (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// rssSubWindows is how many sub-windows a measured window's peak RSS is
// taken over; server_peak_rss_mb is the median of their peaks, steadier
// than one peak over the whole run.
const rssSubWindows = 5

// rssSampler records the server's peak RSS per sub-window by resetting the
// kernel's high-water mark (clear_refs 5) at each sub-window's start.
type rssSampler struct {
	done  chan struct{}
	exit  chan struct{}
	peaks []float64
}

func startRSSSampler(p *serverProc, every time.Duration) *rssSampler {
	s := &rssSampler{done: make(chan struct{}), exit: make(chan struct{})}
	if p.resetPeakRSS() != nil {
		close(s.exit)
		return s
	}
	go func() {
		defer close(s.exit)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				mb, err := p.peakRSSMB()
				if err != nil || p.resetPeakRSS() != nil {
					s.peaks = nil
					return
				}
				s.peaks = append(s.peaks, mb)
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the sub-window peaks.
func (s *rssSampler) stop() []float64 {
	close(s.done)
	<-s.exit
	return s.peaks
}

// resetPeakRSS resets the server's VmHWM to its current RSS.
func (p *serverProc) resetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", p.cmd.Process.Pid), []byte("5"), 0)
}

// scrapeMetrics runs the \metrics builtin and returns the counters whose
// family names start with one of prefixes, keyed by the full series name.
func scrapeMetrics(c *client.Client, prefixes ...string) (map[string]float64, error) {
	resp, err := c.Query(context.Background(), `\metrics`)
	if err != nil {
		return nil, fmt.Errorf(`\metrics: %w`, err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(resp.Message, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
					out[name] = v
				}
			}
		}
	}
	return out, nil
}

// counterDelta is after minus before, series by series.
func counterDelta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
