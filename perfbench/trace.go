package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tpjoin/internal/align"
	"tpjoin/internal/catalog"
	"tpjoin/internal/client"
	"tpjoin/internal/core"
	"tpjoin/internal/engine"
	"tpjoin/internal/lineage"
	"tpjoin/internal/plan"
	"tpjoin/internal/prob"
	"tpjoin/internal/server"
	"tpjoin/internal/sql"
	"tpjoin/internal/stats"
	"tpjoin/internal/tp"
)

// The traced run measures the same workload on the same seed as the timed
// run, in three steps:
//
//  1. an untraced window through internal/client, the baseline for the
//     tracing overhead;
//  2. a traced window over raw connections, where every statement is a
//     trace: a client.query span (request sent → response decoded) with
//     the children server.eval (the server's Response.elapsed_us),
//     server.wire (the rest of the wait for the last response byte:
//     rendering, JSON encoding, transfer) and client.decode;
//  3. an in-process replay of the workload's statements through the
//     public functions of each layer on the same loaded inputs, one span
//     per call.
//
// Spans stay in memory until the end. A layer's self time is its span
// minus its children. The replayed window pipelines are cumulative
// (overlap ⊂ lawau ⊂ lawan ⊂ core.join), so each stage's self time is its
// pipeline's span minus the next shorter one; lineage formation is
// core.join minus the window pipeline and the probability evaluation.

// layerSumTolerance bounds |trace.layer_sum_ratio − 1|: the replayed
// per-statement layer self-times (parse, plan, engine, render, encode,
// decode) must add up to the traced round trip within this share. The
// replay runs uncontended while the server shares the host's CPUs with
// the generator (and, on meteo-refresh, the writer's statement), so the
// sum reads low under load.
const layerSumTolerance = 0.5

// pipelineReps is how often each window pipeline is timed; stage self
// times are differences of medians, so a stage much cheaper than its
// upstream (LAWAU) can read slightly negative.
const pipelineReps = 5

// span is one timed call; the spans of one statement share trace.
type span struct {
	trace      uint64
	parent     int // index of the parent span, < 0 for a root
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	traces atomic.Uint64
}

func (t *tracer) newTrace() uint64 { return t.traces.Add(1) }

func (t *tracer) add(trace uint64, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{trace: trace, parent: parent, name: name, start: start, end: end})
	return id
}

// finish sets the end of a span opened before its children.
func (t *tracer) finish(id int, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = end
}

// time runs fn as a span and returns its duration.
func (t *tracer) time(trace uint64, parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(trace, parent, name, start, end)
	return end.Sub(start)
}

// selfTimes returns, per span name, the self time (duration minus the
// durations of its children) of every span with that name.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for i, s := range t.spans {
		out[s.name] = append(out[s.name], s.dur()-child[i])
	}
	return out
}

// rawQuerier is a traced session over a raw connection: it times the
// arrival of the whole response line apart from its JSON decode, which
// internal/client interleaves.
type rawQuerier struct {
	conn net.Conn
	rd   *bufio.Reader
	id   uint64
	tr   *tracer
}

func dialRaw(addr string, tr *tracer) (querier, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawQuerier{conn: conn, rd: bufio.NewReaderSize(conn, 1<<16), tr: tr}, nil
}

func (q *rawQuerier) close() { q.conn.Close() }

func (q *rawQuerier) query(ctx context.Context, text string, write bool) (*server.Response, sample, error) {
	var s sample
	q.id++
	req, err := json.Marshal(server.Request{ID: q.id, Query: text})
	if err != nil {
		return nil, s, err
	}
	if dl, ok := ctx.Deadline(); ok {
		if err := q.conn.SetDeadline(dl); err != nil {
			return nil, s, err
		}
	}
	t0 := time.Now()
	if _, err := q.conn.Write(append(req, '\n')); err != nil {
		return nil, s, fmt.Errorf("send: %w", err)
	}
	line, err := q.rd.ReadBytes('\n')
	if err != nil {
		return nil, s, fmt.Errorf("receive: %w", err)
	}
	t1 := time.Now()
	var resp server.Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, s, fmt.Errorf("decode: %w", err)
	}
	t2 := time.Now()
	if resp.ID != q.id {
		return nil, s, fmt.Errorf("response id %d for request %d", resp.ID, q.id)
	}
	eval := time.Duration(resp.ElapsedUS) * time.Microsecond
	if eval > t1.Sub(t0) {
		eval = t1.Sub(t0)
	}
	// Writes get their own span names so the read metrics see reads only.
	suffix := ""
	if write {
		suffix = "/write"
	}
	tid := q.tr.newTrace()
	root := q.tr.add(tid, -1, "client.query"+suffix, t0, t2)
	q.tr.add(tid, root, "server.eval"+suffix, t0, t0.Add(eval))
	q.tr.add(tid, root, "server.wire"+suffix, t0.Add(eval), t1)
	q.tr.add(tid, root, "client.decode"+suffix, t1, t2)
	s.rows, s.bytes = len(resp.Rows), len(line)
	if resp.Error != "" {
		return &resp, s, &client.ServerError{Msg: resp.Error, Usage: resp.Usage, ErrClass: resp.ErrClass}
	}
	return &resp, s, nil
}

// tracedRun is one traced run: the untraced and traced windows split
// cfg.seconds, then the in-process replay.
func tracedRun(cfg runConfig) (result, error) {
	in, err := prepareRun(cfg)
	if err != nil {
		return result{}, err
	}
	srv, err := setupServer(cfg, in)
	if err != nil {
		return result{}, err
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
	half := time.Duration(cfg.seconds) * time.Second / 2
	plain, err := measure(cfg, srv, in, ref, half, func() (querier, error) {
		c, err := srv.dial()
		return clientQuerier{c}, err
	})
	if err != nil {
		return result{}, err
	}
	tr := &tracer{}
	traced, err := measure(cfg, srv, in, ref, half, func() (querier, error) { return dialRaw(srv.addr, tr) })
	if err != nil {
		return result{}, err
	}
	after, err := scrapeMetrics(ctl, counterFamilies...)
	if err != nil {
		return result{}, err
	}
	ctl.Close()
	srv.stop() // free the CPUs for the replay
	counters := counterDelta(before, after)

	m := make(map[string]metric)
	self := tr.selfTimes()
	var rows, bytes, reads int
	for _, s := range traced.samples {
		if !s.write {
			rows += s.rows
			bytes += s.bytes
			reads++
		}
	}
	if reads == 0 {
		return result{}, fmt.Errorf("no traced read completed")
	}
	m["server.eval_ms"] = metric{medianMS(self["server.eval"]), "ms"}
	m["server.wire_ms"] = metric{medianMS(self["server.wire"]), "ms"}
	m["client.decode_ms"] = metric{medianMS(self["client.decode"]), "ms"}
	m["server.rows_per_stmt"] = metric{float64(rows) / float64(reads), "count"}
	m["server.resp_bytes_per_row"] = metric{float64(bytes) / float64(max(rows, 1)), "B"}
	hits := counters["tpserverd_plan_cache_hits_total"]
	misses := counters["tpserverd_plan_cache_misses_total"]
	m["plan.cache_hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}
	m["plan.cache_invalidations"] = metric{counters["tpserverd_plan_cache_invalidations_total"], "count"}

	if err := replay(cfg, in, ref, tr, m); err != nil {
		return result{}, err
	}

	tracedReads, plainReads := traced.latencies(false), plain.latencies(false)
	roundTrip := quantile(tracedReads, 0.5)
	m["trace.overhead_ratio"] = metric{roundTrip / quantile(plainReads, 0.5), "ratio"}
	sum := m["sql.parse_us"].Value/1000 + m["plan.build_warm_us"].Value/1000 + m["engine.run_ms"].Value +
		m["lineage.render_ms"].Value + m["server.json_encode_ms"].Value + m["client.decode_ms"].Value
	m["trace.layer_sum_ratio"] = metric{sum / roundTrip, "ratio"}

	printRecord("run", hostRecord(cfg))
	rec := workloadRecord(cfg, in, ref, traced, counters, nil)
	rec["traced_read_p50_ms"] = roundTrip
	rec["untraced_read_p50_ms"] = quantile(plainReads, 0.5)
	rec["layer_sum_ms"] = sum
	rec["layer_sum_tolerance"] = layerSumTolerance
	rec["layer_sum_within_tolerance"] = math.Abs(sum/roundTrip-1) <= layerSumTolerance
	printRecord("trace", rec)
	failed := plain.failed() + traced.failed()
	for _, w := range []*window{plain, traced} {
		if w.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", w.firstErr)
		}
	}
	return result{
		Correct:   failed == 0,
		Attempted: plain.attempted() + traced.attempted(),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// replay runs each read operator of the workload in process through the
// layers' public functions and adds the per-statement layer metrics to m,
// averaged over the operators.
func replay(cfg runConfig, in *inputs, ref *reference, tr *tracer, m map[string]metric) error {
	w := cfg.w
	theta := tp.Equi(0, 0) // both datasets join on Key, column 0 of r and s
	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 99))
	sums := make(map[string]float64)
	units := make(map[string]string)
	put := func(name string, v float64, unit string) { sums[name] += v; units[name] = unit }
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	ctx := context.Background()
	for _, opName := range w.ops {
		op := tp.OpLeft
		if opName == "ANTI" {
			op = tp.OpAnti
		}
		tid := tr.newTrace()
		root := tr.add(tid, -1, "replay."+opName, time.Now(), time.Time{})
		key := in.keys[rng.IntN(len(in.keys))]
		text := w.joinSQL(opName)
		if w.keyed {
			text = w.filteredSQL(opName, key)
		}

		// sql
		const parseReps = 200
		var sel *sql.Select
		d := tr.time(tid, root, "sql.parse", func() {
			for i := 0; i < parseReps; i++ {
				st, err := sql.Parse(text)
				if err == nil {
					sel, _ = st.(*sql.Select)
				}
			}
		})
		if sel == nil {
			return fmt.Errorf("replay: %q does not parse to a SELECT", text)
		}
		put("sql.parse_us", float64(d)/float64(time.Microsecond)/parseReps, "us")

		// stats, plan, catalog
		var cold, stat []float64
		for i := 0; i < 3; i++ {
			cat, err := in.catalog()
			if err != nil {
				return err
			}
			var berr error
			cold = append(cold, msOf(tr.time(tid, root, "plan.build_cold", func() { _, berr = plan.Build(sel, cat, &plan.Session{}) })))
			if berr != nil {
				return berr
			}
			stat = append(stat, msOf(tr.time(tid, root, "stats.compute", func() { stats.Compute(in.r); stats.Compute(in.s) })))
		}
		put("plan.build_cold_ms", median(cold), "ms")
		put("stats.compute_ms", median(stat), "ms")
		cat, err := in.catalog()
		if err != nil {
			return err
		}
		sess := &plan.Session{}
		if _, err := plan.Build(sel, cat, sess); err != nil {
			return err
		}
		const warmReps = 50
		d = tr.time(tid, root, "plan.build_warm", func() {
			for i := 0; i < warmReps; i++ {
				_, _ = plan.Build(sel, cat, sess) // built and checked above
			}
		})
		put("plan.build_warm_us", float64(d)/float64(time.Microsecond)/warmReps, "us")

		// engine: the statement as the server runs it, under the AUTO pick,
		// twice (the second with another key on keyed workloads); the
		// results also feed the render and encode measurements.
		var runMS, allocMB, allocs, render, encode []float64
		gc0 := readCPUClasses()
		for i := 0; i < 2; i++ {
			if w.keyed && i == 1 {
				if sel, err = parseSelect(w.filteredSQL(opName, in.keys[rng.IntN(len(in.keys))])); err != nil {
					return err
				}
			}
			opTree, err := plan.Build(sel, cat, &plan.Session{})
			if err != nil {
				return err
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var rel *tp.Relation
			d := tr.time(tid, root, "engine.run", func() { rel, err = engine.RunContext(ctx, opTree, "result") })
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return err
			}
			runMS = append(runMS, msOf(d))
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
			var rows []server.Row
			render = append(render, msOf(tr.time(tid, root, "lineage.render", func() { rows = encodeRows(rel) })))
			encode = append(encode, msOf(tr.time(tid, root, "server.json_encode", func() {
				_, err = json.Marshal(server.Response{OK: true, Kind: server.KindRows, Columns: rel.Attrs, Rows: rows, RowCount: len(rows)})
			})))
			if err != nil {
				return err
			}
		}
		gc1 := readCPUClasses()
		put("engine.run_ms", mean(runMS), "ms")
		put("engine.alloc_mb", mean(allocMB), "MB")
		put("engine.allocs", mean(allocs), "count")
		put("engine.gc_cpu_share", (gc1.gc-gc0.gc)/max(gc1.used-gc0.used, 1e-9), "ratio")
		put("lineage.render_ms", mean(render), "ms")
		put("server.json_encode_ms", mean(encode), "ms")

		// plan.auto_over_best: the AUTO pick's run time over the fastest
		// of the four physical strategies, each forced once.
		best, picked := 0.0, 0.0
		for _, st := range []plan.Strategy{plan.StrategyNJ, plan.StrategyPNJ, plan.StrategyTA, plan.StrategyPTA} {
			opTree, err := plan.Build(sel, cat, &plan.Session{Strategy: st})
			if err != nil {
				return err
			}
			d := tr.time(tid, root, "engine.run."+st.String(), func() { _, err = engine.RunContext(ctx, opTree, "result") })
			if err != nil {
				return err
			}
			if best == 0 || msOf(d) < best {
				best = msOf(d)
			}
			if st.String() == ref.picks[opName] {
				picked = msOf(d)
			}
			runtime.GC()
		}
		put("plan.auto_over_best", picked/best, "ratio")

		// core: cumulative window pipelines (median of pipelineReps each),
		// then the whole NJ join and its batched probability tail.
		var windows int
		pipelines := []struct {
			name  string
			build func() core.Iterator
		}{
			{"core.overlap", func() core.Iterator { return core.OverlapJoin(in.r, in.s, theta) }},
			{"core.overlap+lawau", func() core.Iterator { return core.LAWAU(core.OverlapJoin(in.r, in.s, theta)) }},
			{"core.overlap+lawau+lawan", func() core.Iterator { return core.LAWAN(core.LAWAU(core.OverlapJoin(in.r, in.s, theta))) }},
		}
		pipeTimes := make([][]float64, len(pipelines))
		for i := 0; i < pipelineReps; i++ { // round robin, so no pipeline always runs cold
			for p, pl := range pipelines {
				pipeTimes[p] = append(pipeTimes[p], float64(tr.time(tid, root, pl.name, func() { windows = core.Count(pl.build()) })))
			}
		}
		tOverlap := time.Duration(median(pipeTimes[0]))
		tLawau := time.Duration(median(pipeTimes[1]))
		tLawan := time.Duration(median(pipeTimes[2]))
		put("core.overlap_ms", msOf(tOverlap), "ms")
		put("core.lawau_ms", msOf(tLawau-tOverlap), "ms")
		put("core.lawan_ms", msOf(tLawan-tLawau), "ms")
		put("core.windows", float64(windows), "count")
		var joined *tp.Relation
		tJoin := tr.time(tid, root, "core.join", func() { joined = core.Join(op, in.r, in.s, theta) })
		bev := prob.NewBatchEvaluator(tp.MergeProbs(in.r, in.s))
		tProb := tr.time(tid, root, "prob.eval", func() { evalLineages(bev, joined) })
		put("prob.eval_ms", msOf(tProb), "ms")
		put("prob.memo_hits", float64(bev.MemoHits()), "count")
		put("lineage.form_ms", msOf(tJoin-tLawan-tProb), "ms")
		joined = nil
		runtime.GC()

		// align (TA) and par (PNJ).
		tAlign := tr.time(tid, root, "align.align", func() { align.Align(in.r, in.s, theta, align.Config{}) })
		put("align.align_ms", msOf(tAlign), "ms")
		var ast align.Stats
		tAJ := tr.time(tid, root, "align.join", func() { _, err = align.JoinContext(ctx, op, in.r, in.s, theta, align.Config{}, &ast) })
		if err != nil {
			return err
		}
		put("align.join_ms", msOf(tAJ), "ms")
		put("align.fragments", float64(ast.Fragments), "count")
		put("align.dup_avoided", float64(ast.DupAvoided), "count")
		runtime.GC()
		tPar := tr.time(tid, root, "par.pnj", func() {
			_, err = core.ParallelJoinContext(ctx, op, in.r, in.s, theta, runtime.GOMAXPROCS(0), nil)
		})
		if err != nil {
			return err
		}
		put("par.pnj_ms", msOf(tPar), "ms")
		runtime.GC()
		tr.finish(root, time.Now())
	}
	for name, v := range sums {
		m[name] = metric{v / float64(len(w.ops)), units[name]}
	}
	reg, err := registerMS(cfg, in, tr)
	if err != nil {
		return err
	}
	m["catalog.register_ms"] = metric{reg, "ms"}
	return nil
}

// registerMS times catalog.Register of the relation a CTAS of the
// workload registers: its CTAS operator's result, or on workloads without
// writes the first read operator's unfiltered result. Register validates
// the sequenced-TP constraint, which is its cost.
func registerMS(cfg runConfig, in *inputs, tr *tracer) (float64, error) {
	op := cfg.w.ops[0]
	if cfg.w.ctasOp != "" {
		op = cfg.w.ctasOp
	}
	cat, err := in.catalog()
	if err != nil {
		return 0, err
	}
	sel, err := parseSelect(cfg.w.joinSQL(op))
	if err != nil {
		return 0, err
	}
	opTree, err := plan.Build(sel, cat, &plan.Session{})
	if err != nil {
		return 0, err
	}
	rel, err := engine.RunContext(context.Background(), opTree, "bench_ctas")
	if err != nil {
		return 0, err
	}
	tid := tr.newTrace()
	var times []float64
	for i := 0; i < 3; i++ {
		fresh := catalog.New()
		d := tr.time(tid, -1, "catalog.register", func() { err = fresh.Register(rel) })
		if err != nil {
			return 0, err
		}
		times = append(times, float64(d)/float64(time.Millisecond))
	}
	return median(times), nil
}

func parseSelect(text string) (*sql.Select, error) {
	st, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("%q is not a SELECT", text)
	}
	return sel, nil
}

// encodeRows renders a result relation into wire rows as the server does.
func encodeRows(rel *tp.Relation) []server.Row {
	rows := make([]server.Row, 0, rel.Len())
	for _, t := range rel.Tuples {
		rows = append(rows, wireRow(t))
	}
	return rows
}

// evalLineages evaluates the probabilities of rel's lineages in
// core.BatchSize chunks, as the join's batched tail does.
func evalLineages(bev *prob.BatchEvaluator, rel *tp.Relation) {
	es := make([]*lineage.Expr, 0, core.BatchSize)
	out := make([]float64, core.BatchSize)
	for i, t := range rel.Tuples {
		es = append(es, t.Lineage)
		if len(es) == core.BatchSize || i == len(rel.Tuples)-1 {
			bev.EvalBatch(es, out[:len(es)])
			es = es[:0]
		}
	}
}

// cpuClasses are the runtime's cumulative GC and in-use CPU estimates.
type cpuClasses struct{ gc, used float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), used: s[1].Value.Float64() - s[2].Value.Float64()}
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
