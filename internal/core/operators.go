package core

import (
	"context"
	"fmt"

	"tpjoin/internal/lineage"
	"tpjoin/internal/mem"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// This file composes the window streams into the TP join operators
// following Table II of the paper:
//
//	r ▷ s   : WU(r;s,θ) ∪ WN(r;s,θ)
//	r ⟕ s  : WU(r;s,θ) ∪ WN(r;s,θ) ∪ WO(r;s,θ)
//	r ⟖ s  : WO(r;s,θ) ∪ WU(s;r,θ) ∪ WN(s;r,θ)
//	r ⟗ s  : all five sets
//	r ⋈ s   : WO(r;s,θ)
//
// and forms one output tuple per window with the lineage-concatenation
// function of its class: and(λr,λs) for overlapping, λr for unmatched and
// andNot(λr,λs) = λr ∧ ¬λs for negating windows.

// TupleIterator is a pull-based stream of output tuples; the join
// operators produce their results through it without materializing, which
// is how they plug into the pipelined executor (internal/engine).
type TupleIterator interface {
	Next() (tp.Tuple, bool)
}

// JoinStream returns the pipelined result stream of the TP join `op` and
// the output attribute names. The input relations must satisfy the
// sequenced-TP constraint (see Relation.ValidateSequenced); output tuple
// probabilities are exact. Windows move through the pipeline in pooled
// batches (BatchSize at a time), and probabilities are evaluated per
// batch over one shared memo.
func JoinStream(op tp.Op, r, s *tp.Relation, theta tp.Theta) (TupleIterator, []string) {
	return joinStreamWithProbs(op, r, s, theta, tp.MergeProbs(r, s), nil)
}

// JoinStreamInstrumented is JoinStream with per-stage accounting: every
// window-pipeline stage is wrapped in a counting iterator and the returned
// JoinInstr exposes windows/batches per stage (EXPLAIN ANALYZE reads it
// after draining the stream). The counting wrappers only exist on this
// path; plain JoinStream stays allocation- and indirection-free.
func JoinStreamInstrumented(op tp.Op, r, s *tp.Relation, theta tp.Theta) (TupleIterator, []string, *JoinInstr) {
	instr := &JoinInstr{}
	it, attrs := joinStreamWithProbs(op, r, s, theta, tp.MergeProbs(r, s), instr)
	return it, attrs, instr
}

// joinStreamWithProbs is JoinStream with a pre-merged base-event
// probability map, letting callers that evaluate many partitioned joins
// over the same database (ParallelJoin) amortize the merge. A non-nil
// instr interposes counting wrappers between the pipeline stages
// (EXPLAIN ANALYZE); nil leaves the stages directly connected.
func joinStreamWithProbs(op tp.Op, r, s *tp.Relation, theta tp.Theta, probs prob.Probs, instr *JoinInstr) (TupleIterator, []string) {
	attrs := joinAttrs(r, s)
	// pipeline assembles one phase's window stages, wrapping each in a
	// counting iterator when instrumented. suffix distinguishes the
	// mirrored phase of a full outer join.
	pipeline := func(base Iterator, suffix string, negating bool) Iterator {
		if instr == nil {
			if !negating {
				return base
			}
			return LAWAN(LAWAU(base))
		}
		it := instr.stage("overlap"+suffix, base)
		if !negating {
			return it
		}
		it = instr.stage("lawau"+suffix, LAWAU(it))
		return instr.stage("lawan"+suffix, LAWAN(it))
	}
	var phases []phase
	switch op {
	case tp.OpInner:
		phases = []phase{{
			it:   pipeline(OverlapJoin(r, s, theta), "", false),
			opts: emitOpts{keepOverlap: true, sArity: s.Arity()},
		}}
	case tp.OpAnti:
		attrs = append([]string(nil), r.Attrs...)
		phases = []phase{{
			it:   pipeline(OverlapJoin(r, s, theta), "", true),
			opts: emitOpts{keepUnmatched: true, keepNegating: true, antiSchema: true, sArity: s.Arity()},
		}}
	case tp.OpLeft:
		phases = []phase{{
			it:   pipeline(OverlapJoin(r, s, theta), "", true),
			opts: emitOpts{keepOverlap: true, keepUnmatched: true, keepNegating: true, sArity: s.Arity()},
		}}
	case tp.OpRight:
		phases = []phase{{
			it:   pipeline(OverlapJoin(s, r, tp.Swap(theta)), "", true),
			opts: emitOpts{keepOverlap: true, keepUnmatched: true, keepNegating: true, mirror: true, sArity: r.Arity()},
		}}
	case tp.OpFull:
		phases = []phase{
			{
				it:   pipeline(OverlapJoin(r, s, theta), "", true),
				opts: emitOpts{keepOverlap: true, keepUnmatched: true, keepNegating: true, sArity: s.Arity()},
			},
			{
				it:   pipeline(OverlapJoin(s, r, tp.Swap(theta)), "/mirror", true),
				opts: emitOpts{keepUnmatched: true, keepNegating: true, mirror: true, sArity: r.Arity()},
			},
		}
	default:
		panic(fmt.Sprintf("core: unknown operator %v", op))
	}
	return &joinStream{phases: phases, bev: prob.NewBatchEvaluator(probs), instr: instr}, attrs
}

// Join computes the TP join of the given operator, materializing the
// stream of JoinStream into a new relation.
func Join(op tp.Op, r, s *tp.Relation, theta tp.Theta) *tp.Relation {
	out, _ := drainJoinCtx(context.Background(), op, r, s, theta, tp.MergeProbs(r, s), nil)
	return out
}

// drainJoinCtx materializes the join stream into a relation, observing
// ctx every cancelCheck tuples (trivial for the Background context, so
// the uncancellable callers above pay nothing measurable). It is the
// single drain loop shared by the sequential joins and the PNJ partition
// workers; a non-nil st additionally accounts the produced tuples. A
// memory budget on ctx (mem.WithGauge) is charged for the pooled pipeline
// buffers up front and for the materialized tuples at every checkpoint —
// the PNJ partition workers all charge the one per-query gauge, so the
// whole parallel join shares one budget.
func drainJoinCtx(ctx context.Context, op tp.Op, r, s *tp.Relation, theta tp.Theta, probs prob.Probs, st *ParallelStats) (*tp.Relation, error) {
	gauge := mem.FromContext(ctx)
	if err := gauge.Charge(PipelineBytes(op)); err != nil {
		return nil, err
	}
	it, attrs := joinStreamWithProbs(op, r, s, theta, probs, nil)
	out := &tp.Relation{
		Name:  fmt.Sprintf("%s_%s_%s", r.Name, opTag(op), s.Name),
		Attrs: attrs,
		Probs: probs,
	}
	perCheck := cancelCheck * mem.TupleBytes(len(attrs))
	for n := 0; ; n++ {
		if n%cancelCheck == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if n > 0 {
				if err := gauge.Charge(perCheck); err != nil {
					return nil, err
				}
			}
		}
		t, ok := it.Next()
		if !ok {
			break
		}
		out.Tuples = append(out.Tuples, t)
	}
	if st != nil {
		st.Tuples.Add(int64(out.Len()))
	}
	return out, nil
}

// InnerJoin computes r ⋈Tp s: output tuples for the overlapping windows only.
func InnerJoin(r, s *tp.Relation, theta tp.Theta) *tp.Relation {
	return Join(tp.OpInner, r, s, theta)
}

// AntiJoin computes r ▷Tp s: at each time point the probability that the
// r tuple matches none of the valid s tuples. The output schema is r's.
func AntiJoin(r, s *tp.Relation, theta tp.Theta) *tp.Relation {
	return Join(tp.OpAnti, r, s, theta)
}

// LeftOuterJoin computes r ⟕Tp s: pairings plus, at each time point, the
// probability that the r tuple matches no valid s tuple.
func LeftOuterJoin(r, s *tp.Relation, theta tp.Theta) *tp.Relation {
	return Join(tp.OpLeft, r, s, theta)
}

// RightOuterJoin computes r ⟖Tp s, running the window pipeline with the
// inputs swapped and mirroring the output facts back into (r, s) order.
func RightOuterJoin(r, s *tp.Relation, theta tp.Theta) *tp.Relation {
	return Join(tp.OpRight, r, s, theta)
}

// FullOuterJoin computes r ⟗Tp s: the overlapping windows once, plus the
// unmatched and negating windows of both directions.
func FullOuterJoin(r, s *tp.Relation, theta tp.Theta) *tp.Relation {
	return Join(tp.OpFull, r, s, theta)
}

func opTag(op tp.Op) string {
	switch op {
	case tp.OpInner:
		return "join"
	case tp.OpAnti:
		return "anti"
	case tp.OpLeft:
		return "louter"
	case tp.OpRight:
		return "router"
	default:
		return "fouter"
	}
}

// phase is one window pipeline with its tuple-formation options.
type phase struct {
	it   Iterator
	opts emitOpts
}

// joinStream converts window streams into output tuples lazily. Windows
// are pulled from each phase through the pooled batched transport and
// probabilities are evaluated in BatchSize batches through
// prob.BatchEvaluator (one memo across the join).
type joinStream struct {
	phases []phase
	cur    int
	instr  *JoinInstr // nil unless EXPLAIN ANALYZE instrumented

	bev          *prob.BatchEvaluator
	buf          *[]window.Window
	bufPos, bufN int
	// The batched probability tail: tuples of the current batch with
	// their lineages collected, awaiting one EvalBatch call. Allocated on
	// the first batch (PipelineBytes charges them up front).
	tbuf     []tp.Tuple
	lams     []*lineage.Expr
	ps       []float64
	tpos, tn int
}

// Next implements TupleIterator.
func (j *joinStream) Next() (tp.Tuple, bool) {
	for {
		if j.tpos < j.tn {
			t := j.tbuf[j.tpos]
			j.tpos++
			return t, true
		}
		if !j.fillBatch() {
			return tp.Tuple{}, false
		}
	}
}

// fillBatch forms up to BatchSize output tuples from the window stream —
// fact and lineage only — then evaluates all their probabilities in one
// EvalBatch call. Deferring the probability to the batch boundary turns
// the probability tail into batched work over the shared memo.
func (j *joinStream) fillBatch() bool {
	if j.tbuf == nil {
		j.tbuf = make([]tp.Tuple, BatchSize)
		j.lams = make([]*lineage.Expr, BatchSize)
		j.ps = make([]float64, BatchSize)
	}
	j.tpos, j.tn = 0, 0
	for j.cur < len(j.phases) && j.tn < BatchSize {
		if j.bufPos == j.bufN {
			if j.buf == nil {
				j.buf = getBatchBuf()
			}
			j.bufN = j.phases[j.cur].it.NextBatch(*j.buf)
			j.bufPos = 0
			if j.bufN == 0 {
				j.cur++
				continue
			}
		}
		ph := &j.phases[j.cur]
		for j.bufPos < j.bufN && j.tn < BatchSize {
			w := (*j.buf)[j.bufPos]
			j.bufPos++
			if t, ok := ph.opts.tupleLam(w); ok {
				j.tbuf[j.tn] = t
				j.lams[j.tn] = t.Lineage
				j.tn++
			}
		}
	}
	if j.tn == 0 {
		if j.buf != nil {
			putBatchBuf(j.buf)
			j.buf = nil
		}
		clear(j.tbuf) // drop fact/lineage references past end of stream
		clear(j.lams)
		return false
	}
	j.bev.EvalBatch(j.lams[:j.tn], j.ps)
	for i := 0; i < j.tn; i++ {
		j.tbuf[i].Prob = j.ps[i]
	}
	if j.instr != nil {
		j.instr.ProbBatches = j.bev.Batches()
		j.instr.MemoHits = j.bev.MemoHits()
	}
	return true
}

// emitOpts selects which window classes contribute output tuples and how
// facts are assembled.
type emitOpts struct {
	keepOverlap   bool
	keepUnmatched bool
	keepNegating  bool
	// mirror indicates the pipeline ran with swapped inputs: the window's
	// Fr is a fact of s, and output facts must be reassembled in (r, s)
	// attribute order.
	mirror bool
	// sArity is the arity of the NULL-extended side.
	sArity int
	// antiSchema drops the NULL-extension entirely (anti join outputs have
	// r's schema).
	antiSchema bool
}

// tupleLam forms the output tuple of window w — fact, lineage and
// interval, probability left unset — or reports false when w's class is
// not part of the operator.
func (o emitOpts) tupleLam(w window.Window) (tp.Tuple, bool) {
	var f tp.Fact
	var lam *lineage.Expr
	switch w.Class() {
	case window.Overlapping:
		if !o.keepOverlap {
			return tp.Tuple{}, false
		}
		if o.mirror {
			f = w.Fs.Concat(w.Fr)
		} else {
			f = w.Fr.Concat(w.Fs)
		}
		lam = lineage.And(w.Lr, w.Ls)
	case window.Unmatched:
		if !o.keepUnmatched {
			return tp.Tuple{}, false
		}
		f = o.negFact(w)
		lam = w.Lr
	default: // Negating
		if !o.keepNegating {
			return tp.Tuple{}, false
		}
		f = o.negFact(w)
		lam = lineage.AndNot(w.Lr, w.Ls)
	}
	return tp.Tuple{Fact: f, Lineage: lam, T: w.T}, true
}

func (o emitOpts) negFact(w window.Window) tp.Fact {
	if o.antiSchema {
		return w.Fr
	}
	if o.mirror {
		return tp.Nulls(o.sArity).Concat(w.Fr)
	}
	return w.Fr.Concat(tp.Nulls(o.sArity))
}

func joinAttrs(r, s *tp.Relation) []string {
	attrs := make([]string, 0, len(r.Attrs)+len(s.Attrs))
	attrs = append(attrs, r.Attrs...)
	attrs = append(attrs, s.Attrs...)
	return attrs
}

// WUO materializes the overlapping and unmatched windows of r with respect
// to s (the quantity measured in the paper's Fig. 5).
func WUO(r, s *tp.Relation, theta tp.Theta) []window.Window {
	return Drain(LAWAU(OverlapJoin(r, s, theta)))
}

// WUON materializes all three window sets (the quantity measured in the
// paper's Fig. 6 as NJ-WUON).
func WUON(r, s *tp.Relation, theta tp.Theta) []window.Window {
	return Drain(LAWAN(LAWAU(OverlapJoin(r, s, theta))))
}
