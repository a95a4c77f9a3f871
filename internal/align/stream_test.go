package align

// Tests pinning the streaming union's contracts beyond byte-identity
// (equiv_test.go): the counting pass is gated on cheapCount so nested-loop
// plans never pay it, the counted presize covers the materialized rows
// exactly, the joins match the materialize-then-union oracle on the
// seeded benchmark workloads, the EXPLAIN counters are populated and
// plan-independent, and the uncounted plans honour the memory budget and
// cancellation.

import (
	"context"
	"errors"
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/mem"
	"tpjoin/internal/tp"
)

// probeAligner reports cheapCount false and fails the test if anything
// drains it — the stand-in for a nested-loop aligner whose counting pass
// would re-run the full conventional joins.
type probeAligner struct {
	t       *testing.T
	drained bool
}

func (p *probeAligner) drain(context.Context, *tp.Relation, emitFunc) error {
	p.drained = true
	p.t.Error("countDrain ran a drain on an aligner without cheap counting")
	return nil
}
func (p *probeAligner) cheapCount() bool { return false }
func (p *probeAligner) release()         {}

// TestCountDrainSkipsExpensiveAligners pins the presize gate: a plan whose
// aligner cannot count cheaply (the nested-loop reference) must not pay a
// counting pass — countDrain returns not-ok without draining, and the
// union falls back to append growth.
func TestCountDrainSkipsExpensiveAligners(t *testing.T) {
	r, _ := dataset.Webkit(50, 1)
	probe := &probeAligner{t: t}
	c, ok, err := countDrain(context.Background(), probe, r)
	if err != nil {
		t.Fatalf("countDrain: %v", err)
	}
	if ok {
		t.Fatal("countDrain reported ok on a cheapCount()==false aligner")
	}
	if c != (drainCounts{}) {
		t.Fatalf("countDrain returned non-zero counts %+v without draining", c)
	}
	if probe.drained {
		t.Fatal("counting pass ran the drain")
	}
	// The real nested-loop aligner is in the same class.
	if newScalarAligner(r, tp.Equi(0, 0), Config{NestedLoop: true}).cheapCount() {
		t.Fatal("scalar aligner claims cheap counting")
	}
}

// streamPresize recomputes the row-buffer presize exactly as the streamed
// join paths do: counting drains per direction, combined by drain mode.
func streamPresize(t *testing.T, op tp.Op, r, s *tp.Relation, theta tp.Theta) int {
	t.Helper()
	ctx := context.Background()
	count := func(inner, outer *tp.Relation, th tp.Theta) drainCounts {
		al := newAligner(inner, th, Config{})
		defer al.release()
		c, ok, err := countDrain(ctx, al, outer)
		if err != nil || !ok {
			t.Fatalf("countDrain(%v): ok=%v err=%v", op, ok, err)
		}
		return c
	}
	switch op {
	case tp.OpInner:
		return count(s, r, theta).rowsFor(drainPairsOnly)
	case tp.OpAnti:
		return count(s, r, theta).rowsFor(drainNegOnly)
	case tp.OpLeft:
		return count(s, r, theta).rowsFor(drainFused)
	case tp.OpRight:
		return count(r, s, tp.Swap(theta)).rowsFor(drainFused)
	case tp.OpFull:
		return count(s, r, theta).rowsFor(drainFused) +
			count(r, s, tp.Swap(theta)).rowsFor(drainNegOnly)
	default:
		panic("unknown op")
	}
}

// TestStreamPresizeCoversRows pins the counting pass to the materialized
// reality on every join shape: the presize equals the pre-union row count
// the drains actually emit (no append regrowth mid-drain) and therefore
// bounds the post-union output.
func TestStreamPresizeCoversRows(t *testing.T) {
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for _, gen := range []struct {
		name string
		mk   func() (*tp.Relation, *tp.Relation)
	}{
		{"webkit", func() (*tp.Relation, *tp.Relation) { return dataset.Webkit(400, 7) }},
		{"meteo", func() (*tp.Relation, *tp.Relation) { return dataset.Meteo(300, 7) }},
	} {
		r, s := gen.mk()
		theta := dataset.WebkitTheta()
		for _, op := range ops {
			presize := streamPresize(t, op, r, s, theta)
			var st Stats
			out, err := JoinContext(context.Background(), op, r, s, theta, Config{}, &st)
			if err != nil {
				t.Fatalf("%s %v: %v", gen.name, op, err)
			}
			if int64(presize) != st.Rows {
				t.Errorf("%s %v: presize %d != materialized pre-union rows %d",
					gen.name, op, presize, st.Rows)
			}
			if int64(out.Len()) > st.Rows {
				t.Errorf("%s %v: output %d rows exceeds pre-union count %d",
					gen.name, op, out.Len(), st.Rows)
			}
		}
	}
}

// TestStreamMatchesUnionDistinctOnWorkloads pins the joins to the oracle
// (materialize both sub-queries, then unionDistinct) byte-for-byte on the seeded benchmark workloads — the
// workload-scale counterpart of TestJoinByteIdenticalToScalar's random
// relations, where per-key chains and group structure are realistic.
func TestStreamMatchesUnionDistinctOnWorkloads(t *testing.T) {
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for _, gen := range []struct {
		name string
		mk   func() (*tp.Relation, *tp.Relation)
	}{
		{"webkit", func() (*tp.Relation, *tp.Relation) { return dataset.Webkit(250, 13) }},
		{"meteo", func() (*tp.Relation, *tp.Relation) { return dataset.Meteo(200, 13) }},
	} {
		r, s := gen.mk()
		theta := dataset.WebkitTheta()
		for _, op := range ops {
			want := renderRows(scalarJoin(op, r, s, theta, Config{}, nil))
			got := renderRows(Join(op, r, s, theta, Config{}))
			if len(want) != len(got) {
				t.Fatalf("%s %v: %d vs %d rows", gen.name, op, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s %v: row %d differs:\n  want %s\n  got  %s",
						gen.name, op, i, want[i], got[i])
				}
			}
		}
	}
}

// TestStreamStatsCounters pins the semantics of the counters the streaming
// union added to Stats: a fused left outer join runs one alignment pass,
// kills at least one duplicate unmatched fragment at the merge frontier
// on a workload with partial coverage, and evaluates probabilities in
// batches. The nested-loop plan runs the same tail over the same
// fragments, so it must report exactly the hash plan's counters.
func TestStreamStatsCounters(t *testing.T) {
	r, s := dataset.Meteo(300, 5)
	theta := dataset.MeteoTheta()

	var st Stats
	if _, err := JoinContext(context.Background(), tp.OpLeft, r, s, theta, Config{}, &st); err != nil {
		t.Fatal(err)
	}
	if st.AlignPasses != 1 {
		t.Errorf("fused left outer: AlignPasses = %d, want 1", st.AlignPasses)
	}
	if st.DupAvoided == 0 {
		t.Error("fused left outer on meteo: DupAvoided = 0, want > 0")
	}
	if st.ProbBatches == 0 {
		t.Error("streamed left outer: ProbBatches = 0, want > 0")
	}

	var full Stats
	if _, err := JoinContext(context.Background(), tp.OpFull, r, s, theta, Config{}, &full); err != nil {
		t.Fatal(err)
	}
	if full.AlignPasses != 2 {
		t.Errorf("fused full outer: AlignPasses = %d, want 2", full.AlignPasses)
	}

	for _, op := range []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull} {
		var hash, nl Stats
		if _, err := JoinContext(context.Background(), op, r, s, theta, Config{}, &hash); err != nil {
			t.Fatal(err)
		}
		if _, err := JoinContext(context.Background(), op, r, s, theta, Config{NestedLoop: true}, &nl); err != nil {
			t.Fatal(err)
		}
		if nl != hash {
			t.Errorf("%v: nested-loop stats %+v != hash stats %+v", op, nl, hash)
		}
	}
}

// TestUncountedPlansHonourBudgetAndCancel pins the budget and
// cancellation contract on the plans whose aligner cannot count cheaply
// (nested loop, non-equi θ): they run the same streaming tail as the hash
// plan, so a 64 KiB budget fails the join with a budget error — the row
// buffer's regrowth is charged as it happens — and a cancelled context
// aborts it with context.Canceled.
func TestUncountedPlansHonourBudgetAndCancel(t *testing.T) {
	r, s := dataset.Meteo(2000, 5)
	for _, plan := range []struct {
		name  string
		theta tp.Theta
		cfg   Config
	}{
		{"nested-loop", dataset.MeteoTheta(), Config{NestedLoop: true}},
		{"true-theta", tp.TrueTheta{}, Config{}},
	} {
		g := mem.NewGauge(64 << 10)
		out, err := JoinContext(mem.WithGauge(context.Background(), g), tp.OpLeft, r, s, plan.theta, plan.cfg, nil)
		if !mem.IsBudget(err) || out != nil {
			t.Errorf("%s: 64 KiB budget: got %v rows, err %v; want a budget error", plan.name, rowCount(out), err)
		}
		if g.Used() <= g.Limit() {
			t.Errorf("%s: gauge used %d of %d; the overrun charge must stay counted", plan.name, g.Used(), g.Limit())
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out, err = JoinContext(ctx, tp.OpLeft, r, s, plan.theta, plan.cfg, nil)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("%s: cancelled ctx: got %v rows, err %v; want context.Canceled", plan.name, rowCount(out), err)
		}
	}
}

func rowCount(rel *tp.Relation) int {
	if rel == nil {
		return 0
	}
	return rel.Len()
}
