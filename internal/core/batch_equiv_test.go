package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tpjoin/internal/align"
	"tpjoin/internal/dataset"
	"tpjoin/internal/prob"
	"tpjoin/internal/tp"
	"tpjoin/internal/window"
)

// These tests pin the batched window transport: every stage must yield
// the same window stream whatever buffer sizes it is pulled with, and
// every NJ/PNJ output probability must be bit-identical to the scalar
// prob.Evaluator, the reference the batched probability tail replaces.

func equivInputs(t *testing.T) []struct {
	name  string
	r, s  *tp.Relation
	theta tp.EquiTheta
} {
	t.Helper()
	wr, ws := dataset.Webkit(3000, 7)
	mr, ms := dataset.Meteo(1200, 7)
	return []struct {
		name  string
		r, s  *tp.Relation
		theta tp.EquiTheta
	}{
		{"webkit", wr, ws, dataset.WebkitTheta()},
		{"meteo", mr, ms, dataset.MeteoTheta()},
	}
}

// renderTuples gives the byte-exact comparison key of a result.
func renderTuples(rel *tp.Relation) []string {
	out := make([]string, rel.Len())
	for i, tu := range rel.Tuples {
		out[i] = tu.String()
	}
	return out
}

func drainStream(it TupleIterator, attrs []string) *tp.Relation {
	out := &tp.Relation{Name: "drained", Attrs: attrs}
	for {
		tu, ok := it.Next()
		if !ok {
			return out
		}
		out.Tuples = append(out.Tuples, tu)
	}
}

var equivOps = []tp.Op{tp.OpInner, tp.OpLeft, tp.OpFull, tp.OpAnti}

// checkScalarProbs requires every tuple's probability to be bit-identical
// to the scalar evaluator's on the tuple's lineage.
func checkScalarProbs(t *testing.T, label string, rel *tp.Relation, probs prob.Probs) {
	t.Helper()
	ev := prob.NewEvaluator(probs)
	for i, tu := range rel.Tuples {
		if want := ev.Prob(tu.Lineage); math.Float64bits(tu.Prob) != math.Float64bits(want) {
			t.Fatalf("%s: tuple %d %s: prob %v, scalar evaluator %v", label, i, tu, tu.Prob, want)
		}
	}
}

// TestBatchScalarEquivalence: NJ — every tuple the batched JoinStream
// emits carries the scalar evaluator's probability, bit for bit, for
// every operator.
func TestBatchScalarEquivalence(t *testing.T) {
	for _, in := range equivInputs(t) {
		probs := tp.MergeProbs(in.r, in.s)
		for _, op := range equivOps {
			it, attrs := JoinStream(op, in.r, in.s, in.theta)
			got := drainStream(it, attrs)
			if got.Len() == 0 {
				t.Fatalf("%s %v: empty result", in.name, op)
			}
			checkScalarProbs(t, fmt.Sprintf("%s %v", in.name, op), got, probs)
		}
	}
}

// TestBatchScalarEquivalencePNJ: the partitioned-parallel executor's
// probabilities are bit-identical to the scalar evaluator too, and its
// tuples, canonically sorted, equal NJ's.
func TestBatchScalarEquivalencePNJ(t *testing.T) {
	for _, in := range equivInputs(t) {
		probs := tp.MergeProbs(in.r, in.s)
		for _, op := range equivOps {
			pnj := ParallelJoin(op, in.r, in.s, in.theta, 4)
			checkScalarProbs(t, fmt.Sprintf("%s %v PNJ", in.name, op), pnj, probs)
			got := renderTuples(pnj)
			want := renderTuples(Join(op, in.r, in.s, in.theta))
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %v: PNJ (%d tuples) differs from NJ (%d tuples)", in.name, op, len(got), len(want))
			}
		}
	}
}

// TestTARunToRunDeterminism: the TA baseline has a single (blocking) code
// path; pin its run-to-run determinism so the strategies stay comparable
// byte-for-byte.
func TestTARunToRunDeterminism(t *testing.T) {
	for _, in := range equivInputs(t) {
		for _, op := range equivOps {
			a := renderTuples(align.Join(op, in.r, in.s, in.theta, align.Config{}))
			b := renderTuples(align.Join(op, in.r, in.s, in.theta, align.Config{}))
			if !slices.Equal(a, b) {
				t.Fatalf("%s %v: TA result differs between runs", in.name, op)
			}
		}
	}
}

// equivStages builds each window-pipeline stage over in afresh.
func equivStages(r, s *tp.Relation, theta tp.Theta) map[string]func() Iterator {
	return map[string]func() Iterator{
		"overlap": func() Iterator { return OverlapJoin(r, s, theta) },
		"wuo":     func() Iterator { return LAWAU(OverlapJoin(r, s, theta)) },
		"wuon":    func() Iterator { return LAWAN(LAWAU(OverlapJoin(r, s, theta))) },
	}
}

// drainSizes pulls it to exhaustion, the i-th call with a buffer of
// sizes[i%len(sizes)] windows.
func drainSizes(it Iterator, sizes ...int) []window.Window {
	var out []window.Window
	for i := 0; ; i++ {
		buf := make([]window.Window, sizes[i%len(sizes)])
		n := it.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func requireSameWindows(t *testing.T, label string, got, want []window.Window) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: window %d differs:\n got:  %v\n want: %v", label, i, got[i], want[i])
		}
	}
}

// TestWindowBatchEquivalence pins the window-level transport stage by
// stage: pulling one window per call, 17 per call, BatchSize per call or
// through Drain yields the identical stream.
func TestWindowBatchEquivalence(t *testing.T) {
	for _, in := range equivInputs(t) {
		for name, mk := range equivStages(in.r, in.s, in.theta) {
			want := drainSizes(mk(), 1)
			if len(want) == 0 {
				t.Fatalf("%s/%s: empty stream", in.name, name)
			}
			for _, size := range []int{17, BatchSize} {
				requireSameWindows(t, fmt.Sprintf("%s/%s size %d", in.name, name, size), drainSizes(mk(), size), want)
			}
			requireSameWindows(t, fmt.Sprintf("%s/%s Drain", in.name, name), Drain(mk()), want)
		}
	}
}

// TestMixedBatchSizes varies the buffer size from call to call on one
// iterator; the combined stream must equal the one-window-per-call drain.
func TestMixedBatchSizes(t *testing.T) {
	for _, in := range equivInputs(t) {
		for name, mk := range equivStages(in.r, in.s, in.theta) {
			want := drainSizes(mk(), 1)
			got := drainSizes(mk(), 1, 17, BatchSize, 3)
			requireSameWindows(t, fmt.Sprintf("%s/%s mixed", in.name, name), got, want)
		}
	}
}

// TestRelCacheInvalidatesOnSort pins the derived-structure cache's
// staleness detection: re-sorting a relation through tp.Relation's
// methods (which bump its version) must rebuild the cached key
// dictionary instead of serving stale tuple indexes.
func TestRelCacheInvalidatesOnSort(t *testing.T) {
	r, s := dataset.Webkit(800, 13)
	theta := dataset.WebkitTheta()
	before := Drain(LAWAU(OverlapJoin(r, s, theta))) // populates the cache for s

	s.SortByStart() // same length, new tuple order: version bump must invalidate
	after := Drain(LAWAU(OverlapJoin(r, s, theta)))

	// The window multiset is order-insensitive except for RID/RT, which
	// track r (untouched); s's reordering must not change the result set.
	if len(before) != len(after) {
		t.Fatalf("window count changed after build-side re-sort: %d vs %d", len(before), len(after))
	}
	window.Sort(before)
	window.Sort(after)
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatalf("window %d differs after build-side re-sort (stale cache?)", i)
		}
	}
}
