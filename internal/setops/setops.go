// Package setops implements temporal-probabilistic set operations —
// union, intersection and difference — as instances of the generalized
// lineage-aware temporal window framework, following the companion paper
// the authors build on (Papaioannou, Theobald, Böhlen: "Supporting Set
// Operations in Temporal-Probabilistic Databases", ICDE 2018, reference
// [1] of the reproduced paper).
//
// Set operations are TP joins whose θ is equality on *all* non-temporal
// attributes (the two relations must be union-compatible):
//
//	r ∪Tp s : overlapping windows → λr ∨ λs,
//	          unmatched windows of either side → that side's lineage;
//	r ∩Tp s : overlapping windows → λr ∧ λs;
//	r −Tp s : the TP anti join with full-fact equality —
//	          unmatched → λr, negating → λr ∧ ¬λs.
//
// Under the sequenced-TP constraint at most one tuple per fact is valid
// at any time point on each side, so the window sets are disjoint per
// fact and the results are valid sequenced-TP relations.
package setops

import (
	"fmt"

	"tpjoin/internal/core"
	"tpjoin/internal/lineage"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// allTheta builds the full-fact equality condition for two
// union-compatible relations.
func allTheta(r, s *tp.Relation) (tp.EquiTheta, error) {
	if r.Arity() != s.Arity() {
		return tp.EquiTheta{}, fmt.Errorf(
			"setops: relations %s(%d attrs) and %s(%d attrs) are not union-compatible",
			r.Name, r.Arity(), s.Name, s.Arity())
	}
	eq := tp.EquiTheta{RCols: make([]int, r.Arity()), SCols: make([]int, s.Arity())}
	for i := range eq.RCols {
		eq.RCols[i] = i
		eq.SCols[i] = i
	}
	return eq, nil
}

// Union computes r ∪Tp s: at each time point, a fact is true when it is
// true in either input.
func Union(r, s *tp.Relation) (*tp.Relation, error) {
	theta, err := allTheta(r, s)
	if err != nil {
		return nil, err
	}
	out := &tp.Relation{
		Name:  fmt.Sprintf("%s_union_%s", r.Name, s.Name),
		Attrs: append([]string(nil), r.Attrs...),
		Probs: tp.MergeProbs(r, s),
	}
	ev := prob.NewEvaluator(out.Probs)

	buf := make([]window.Window, core.BatchSize)

	// Forward pass: overlapping windows (λr ∨ λs) and r's unmatched (λr).
	fwd := core.LAWAU(core.OverlapJoin(r, s, theta))
	for n := fwd.NextBatch(buf); n > 0; n = fwd.NextBatch(buf) {
		for _, w := range buf[:n] {
			switch w.Class() {
			case window.Overlapping:
				lam := lineage.Or(w.Lr, w.Ls)
				out.AppendDerived(w.Fr, lam, w.T, ev.Prob(lam))
			case window.Unmatched:
				out.AppendDerived(w.Fr, w.Lr, w.T, ev.Prob(w.Lr))
			}
		}
	}
	// Backward pass: s's unmatched windows (λs).
	bwd := core.LAWAU(core.OverlapJoin(s, r, tp.Swap(theta)))
	for n := bwd.NextBatch(buf); n > 0; n = bwd.NextBatch(buf) {
		for _, w := range buf[:n] {
			if w.Class() == window.Unmatched {
				out.AppendDerived(w.Fr, w.Lr, w.T, ev.Prob(w.Lr))
			}
		}
	}
	return out, nil
}

// Intersect computes r ∩Tp s: a fact is true when it is true in both
// inputs.
func Intersect(r, s *tp.Relation) (*tp.Relation, error) {
	theta, err := allTheta(r, s)
	if err != nil {
		return nil, err
	}
	out := &tp.Relation{
		Name:  fmt.Sprintf("%s_intersect_%s", r.Name, s.Name),
		Attrs: append([]string(nil), r.Attrs...),
		Probs: tp.MergeProbs(r, s),
	}
	ev := prob.NewEvaluator(out.Probs)
	it := core.OverlapJoin(r, s, theta)
	buf := make([]window.Window, core.BatchSize)
	for n := it.NextBatch(buf); n > 0; n = it.NextBatch(buf) {
		for _, w := range buf[:n] {
			if w.Class() != window.Overlapping {
				continue
			}
			lam := lineage.And(w.Lr, w.Ls)
			out.AppendDerived(w.Fr, lam, w.T, ev.Prob(lam))
		}
	}
	return out, nil
}

// Difference computes r −Tp s: at each time point the probability that
// the fact is true in r and not true in s. It is exactly the TP anti join
// with full-fact equality.
func Difference(r, s *tp.Relation) (*tp.Relation, error) {
	theta, err := allTheta(r, s)
	if err != nil {
		return nil, err
	}
	out := core.AntiJoin(r, s, theta)
	out.Name = fmt.Sprintf("%s_minus_%s", r.Name, s.Name)
	return out, nil
}
