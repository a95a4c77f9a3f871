package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tpjoin/internal/client"
	"tpjoin/internal/server"
)

const (
	// setupRepeats is how many times a timed run sets the server up;
	// setup_s is the median.
	setupRepeats = 5
	// stmtTimeout bounds one statement's round trip.
	stmtTimeout = 60 * time.Second
)

// runConfig is one benchmark run's settings.
type runConfig struct {
	w       *workload
	n       int // generator size (the workload's, or smaller in the self-test)
	seed    int64
	seconds int
	server  string
	workdir string
	// tamper alters the first row response before it is checked; the
	// self-test uses it to prove a wrong answer is counted as failed.
	tamper bool
}

// sample is one statement's outcome.
type sample struct {
	write  bool
	lat    time.Duration
	failed bool
	rows   int
	bytes  int // response line bytes (traced sessions only)
}

// querier issues one statement on a session: the timed run goes through
// internal/client, the traced run through a raw connection it can time
// piece by piece (trace.go).
type querier interface {
	query(ctx context.Context, text string, write bool) (*server.Response, sample, error)
	close()
}

type clientQuerier struct{ c *client.Client }

func (q clientQuerier) query(ctx context.Context, text string, _ bool) (*server.Response, sample, error) {
	resp, err := q.c.Query(ctx, text)
	var s sample
	if resp != nil {
		s.rows = len(resp.Rows)
	}
	return resp, s, err
}

func (q clientQuerier) close() { q.c.Close() }

// window is the outcome of one measured window.
type window struct {
	samples   []sample
	sessions  int
	wall      time.Duration
	serverCPU time.Duration
	genCPU    time.Duration
	// rssPeaksMB are the server's peak RSS per sub-window of the window
	// (empty where the kernel does not let the peak be reset).
	rssPeaksMB []float64
	firstErr   error
}

func (w *window) attempted() int { return len(w.samples) }

func (w *window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// latencies returns the sorted latencies of reads (write=false) or writes
// in milliseconds.
func (w *window) latencies(write bool) []float64 {
	var out []float64
	for _, s := range w.samples {
		if s.write == write {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// roundBarrier runs sessions in lockstep rounds: a round starts once every
// live session has finished its previous one, and the last to arrive
// decides for all whether the deadline leaves room for another.
type roundBarrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	live     int
	waiting  int
	round    int
	stop     bool
	deadline time.Time
}

func newRoundBarrier(sessions int, deadline time.Time) *roundBarrier {
	b := &roundBarrier{live: sessions, deadline: deadline}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until the next round starts and reports whether it does.
func (b *roundBarrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stop {
		return false
	}
	b.waiting++
	if b.waiting == b.live {
		b.release()
	} else {
		for r := b.round; r == b.round; {
			b.cond.Wait()
		}
	}
	return !b.stop
}

// leave removes a session that ends, so the others do not wait for it.
func (b *roundBarrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live--
	if b.waiting > 0 && b.waiting == b.live {
		b.release()
	}
}

func (b *roundBarrier) release() {
	b.waiting = 0
	b.round++
	b.stop = b.stop || !time.Now().Before(b.deadline)
	b.cond.Broadcast()
}

// setupServer starts the server, loads the run's relations through \loadb
// and runs the workload's warm-up statements.
func setupServer(cfg runConfig, in *inputs) (*serverProc, error) {
	srv, err := startServer(cfg.server, in.dir)
	if err != nil {
		return nil, err
	}
	c, err := srv.dial()
	if err != nil {
		srv.stop()
		return nil, err
	}
	defer c.Close()
	stmts := []string{
		fmt.Sprintf(`\loadb %s %s`, cfg.w.rel("r"), in.rFile),
		fmt.Sprintf(`\loadb %s %s`, cfg.w.rel("s"), in.sFile),
	}
	stmts = append(stmts, cfg.w.warm(cfg.w, in.keys)...)
	for _, st := range stmts {
		ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
		_, err := c.Query(ctx, st)
		cancel()
		if err != nil {
			srv.stop()
			return nil, fmt.Errorf("set-up %q: %w", st, err)
		}
	}
	return srv, nil
}

// prepareRun generates the inputs in a fresh directory.
func prepareRun(cfg runConfig) (*inputs, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d", cfg.w.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return generate(cfg.w, cfg.n, cfg.seed, dir)
}

// referenceFor reads the server's AUTO picks, builds the reference answers
// and records both.
func referenceFor(cfg runConfig, srv *serverProc, in *inputs) (*reference, error) {
	c, err := srv.dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	picks, err := readPicks(c, cfg.w, in.keys)
	if err != nil {
		return nil, err
	}
	return buildReference(cfg.w, in, picks)
}

// measure runs the workload's sessions as closed loops against srv for d:
// each session issues its next statement only once the previous response
// arrived and was checked (and, on lockstep workloads, once every session
// finished the round; on turns workloads, once the other sessions had
// their turn). Sessions stop issuing at the deadline; the window ends
// when the last response is in.
func measure(cfg runConfig, srv *serverProc, in *inputs, ref *reference, d time.Duration, dial func() (querier, error)) (*window, error) {
	specs := cfg.w.sessions(cfg.w, in.keys, ref, cfg.seed)
	qs := make([]querier, len(specs))
	defer func() {
		for _, q := range qs {
			if q != nil {
				q.close()
			}
		}
	}()
	for i, sp := range specs {
		q, err := dial()
		if err != nil {
			return nil, err
		}
		qs[i] = q
		for _, st := range sp.prepare {
			if _, _, err := q.query(context.Background(), st, false); err != nil {
				return nil, fmt.Errorf("%q: %w", st, err)
			}
		}
	}
	var tampered atomic.Bool
	if !cfg.tamper {
		tampered.Store(true)
	}
	// Collect the set-up's garbage first, so no window pays for a
	// collection of the generator's heap that another window skips.
	runtime.GC()
	cpu0, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	start := time.Now()
	deadline := start.Add(d)
	rss := startRSSSampler(srv, d/rssSubWindows)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		win     = &window{sessions: len(specs)}
		perSess = make([][]sample, len(specs))
		bar     *roundBarrier
	)
	if cfg.w.lockstep {
		bar = newRoundBarrier(len(specs), deadline)
	}
	// run issues st on session si, records its outcome and reports
	// whether the session can go on.
	run := func(si int, st stmt) bool {
		ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
		t0 := time.Now()
		resp, s, err := qs[si].query(ctx, st.text, st.write)
		s.lat = time.Since(t0)
		cancel()
		s.write = st.write
		if err == nil && resp.Kind == server.KindRows && len(resp.Rows) > 0 && tampered.CompareAndSwap(false, true) {
			resp.Rows[0].Prob += 0.25
		}
		if err == nil {
			err = st.check(resp)
		}
		if err != nil {
			s.failed = true
			mu.Lock()
			if win.firstErr == nil {
				win.firstErr = fmt.Errorf("%s: %w", st.text, err)
			}
			mu.Unlock()
		}
		perSess[si] = append(perSess[si], s)
		var se *client.ServerError
		return err == nil || resp != nil || errors.As(err, &se) // else a transport failure ended the session
	}
	if cfg.w.turns {
		// The sessions take turns on this goroutine.
		next := make([]int, len(specs))
		for si := 0; time.Now().Before(deadline); si = (si + 1) % len(specs) {
			if !run(si, specs[si].next(next[si])) {
				break
			}
			next[si]++
		}
	} else {
		for si, sp := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if bar != nil {
					defer bar.leave()
				}
				for i := 0; ; {
					if bar != nil {
						if !bar.wait() {
							return
						}
					} else if !time.Now().Before(deadline) {
						return
					}
					for j := 0; j < max(sp.perRound, 1); j++ {
						if !run(si, sp.next(i)) {
							return
						}
						i++
					}
				}
			}()
		}
	}
	wg.Wait()
	win.wall = time.Since(start)
	win.genCPU = selfCPU() - gen0
	win.rssPeaksMB = rss.stop()
	cpu1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	win.serverCPU = cpu1 - cpu0
	for _, ss := range perSess {
		win.samples = append(win.samples, ss...)
	}
	return win, nil
}

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedRun is one untraced run: set up several times (setup_s is the
// median), then measure the workload for cfg.seconds.
func timedRun(cfg runConfig) (result, error) {
	in, err := prepareRun(cfg)
	if err != nil {
		return result{}, err
	}
	var (
		setups []float64
		srv    *serverProc
	)
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		p, err := setupServer(cfg, in)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			p.stop()
		} else {
			srv = p
		}
	}
	defer srv.stop()
	ref, err := referenceFor(cfg, srv, in)
	if err != nil {
		return result{}, err
	}
	ctl, err := srv.dial()
	if err != nil {
		return result{}, err
	}
	defer ctl.Close()
	before, err := scrapeMetrics(ctl, counterFamilies...)
	if err != nil {
		return result{}, err
	}
	win, err := measure(cfg, srv, in, ref, time.Duration(cfg.seconds)*time.Second, func() (querier, error) {
		c, err := srv.dial()
		return clientQuerier{c}, err
	})
	if err != nil {
		return result{}, err
	}
	after, err := scrapeMetrics(ctl, counterFamilies...)
	if err != nil {
		return result{}, err
	}
	rss := median(win.rssPeaksMB)
	if len(win.rssPeaksMB) == 0 {
		if rss, err = srv.peakRSSMB(); err != nil {
			return result{}, err
		}
	}
	reads := win.latencies(false)
	if len(reads) == 0 {
		return result{}, fmt.Errorf("no read completed in %ds", cfg.seconds)
	}
	n := float64(win.attempted())
	res := result{
		Correct:   win.failed() == 0,
		Attempted: win.attempted(),
		Failed:    win.failed(),
		Metrics: map[string]metric{
			"qps":                    {n / win.wall.Seconds(), "1/s"},
			"read_p50_ms":            {quantile(reads, 0.5), "ms"},
			"read_p90_ms":            {quantile(reads, 0.9), "ms"},
			"server_cpu_ms_per_stmt": {ms(win.serverCPU) / n, "ms"},
			"server_peak_rss_mb":     {rss, "MB"},
			"gen_cpu_ms_per_stmt":    {ms(win.genCPU) / n, "ms"},
			"setup_s":                {median(setups), "s"},
		},
	}
	printRecord("run", hostRecord(cfg))
	printRecord("workload", workloadRecord(cfg, in, ref, win, counterDelta(before, after), setups))
	if win.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", win.firstErr)
	}
	return res, nil
}

// counterFamilies are the server counters recorded with every run.
var counterFamilies = []string{"tpserverd_auto_strategy_total", "tpserverd_plan_cache_"}

// workloadRecord is the per-run record printed beside the metrics: the
// AUTO picks, the server counters they moved, sample counts, the write
// round trip and the failure share.
func workloadRecord(cfg runConfig, in *inputs, ref *reference, win *window, counters map[string]float64, setups []float64) map[string]any {
	rec := map[string]any{
		"auto_picks":  ref.picks,
		"counters":    counters,
		"reads":       len(win.latencies(false)),
		"writes":      len(win.latencies(true)),
		"failed_frac": float64(win.failed()) / float64(win.attempted()),
		"input_kb":    in.sizeKB,
		"setups_s":    setups,
		"sessions":    win.sessions,
		"window_s":    win.wall.Seconds(),
	}
	if writes := win.latencies(true); len(writes) > 0 {
		rec["write_p50_ms"] = quantile(writes, 0.5)
	}
	return rec
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of sorted xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
