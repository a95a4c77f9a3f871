package align

// Byte-identity pins: the indexed aligner against the scalar aligner
// (same fragments in the same order with identically ordered covers), and
// every plan's join against the materialize-then-union oracle
// (oracle_test.go) — identical output relations down to the lineage
// rendering and row order: any hot-path change that reorders or drops a
// fragment fails here before it can skew the evaluation.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tpjoin/internal/dataset"
	"tpjoin/internal/interval"
	"tpjoin/internal/tp"
)

// denseRandRelation generates relations whose same-key tuples overlap
// (distinct group column keeps the sequenced constraint), exercising
// multi-tuple covers and shared split points.
func denseRandRelation(rng *rand.Rand, name string, n int) *tp.Relation {
	keys := []string{"k1", "k2", "k3", "k4"}
	rel := tp.NewRelation(name, "K", "G")
	for i := 0; i < n; i++ {
		k := keys[rng.Intn(len(keys))]
		st := interval.Time(rng.Intn(40))
		e := st + 1 + interval.Time(rng.Intn(15))
		rel.Append(tp.Strings(k, fmt.Sprintf("g%d", i)), interval.New(st, e), 0.1+0.8*rng.Float64())
	}
	return rel
}

func fragmentsEqual(t *testing.T, label string, want, got []Fragment) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d fragments", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.RID != g.RID || !w.T.Equal(g.T) {
			t.Fatalf("%s: fragment %d: want RID=%d %v, got RID=%d %v", label, i, w.RID, w.T, g.RID, g.T)
		}
		if len(w.Cover) != len(g.Cover) {
			t.Fatalf("%s: fragment %d cover: want %v, got %v", label, i, w.Cover, g.Cover)
		}
		for j := range w.Cover {
			if w.Cover[j] != g.Cover[j] {
				t.Fatalf("%s: fragment %d cover[%d]: want %v, got %v", label, i, j, w.Cover, g.Cover)
			}
		}
	}
}

// TestIndexedMatchesScalarAlign pins the indexed pipeline to the scalar
// reference fragment-for-fragment (including cover order) on random
// relations, sparse and dense.
func TestIndexedMatchesScalarAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	theta := tp.Equi(0, 0)
	for trial := 0; trial < 150; trial++ {
		var r, s *tp.Relation
		if trial%2 == 0 {
			r, s = randRelation(rng, "r"), randRelation(rng, "s")
		} else {
			r = denseRandRelation(rng, "r", rng.Intn(30))
			s = denseRandRelation(rng, "s", rng.Intn(30))
		}
		want := ScalarAlign(r, s, theta, Config{})
		got := Align(r, s, theta, Config{})
		fragmentsEqual(t, fmt.Sprintf("trial %d", trial), want, got)
	}
}

// TestIndexedMatchesScalarOnWorkloads runs the same pin on slices of the
// seeded benchmark workloads, where per-key chains and group structure
// are realistic.
func TestIndexedMatchesScalarOnWorkloads(t *testing.T) {
	for _, gen := range []struct {
		name string
		mk   func() (*tp.Relation, *tp.Relation)
	}{
		{"webkit", func() (*tp.Relation, *tp.Relation) { return dataset.Webkit(800, 5) }},
		{"meteo", func() (*tp.Relation, *tp.Relation) { return dataset.Meteo(600, 5) }},
	} {
		r, s := gen.mk()
		theta := dataset.WebkitTheta()
		fragmentsEqual(t, gen.name, ScalarAlign(r, s, theta, Config{}), Align(r, s, theta, Config{}))
		// Mirror direction too (the full outer join drains it).
		sw := tp.Swap(theta)
		fragmentsEqual(t, gen.name+"/mirror", ScalarAlign(s, r, sw, Config{}), Align(s, r, sw, Config{}))
	}
}

// TestCoverArenaGuardFallsBack pins the pathological-workload guard: when
// the cover arena would exceed maxCoverArena (quadratic in a skewed key
// group), the indexed aligner must fall back to the scalar path and still
// produce byte-identical fragments.
func TestCoverArenaGuardFallsBack(t *testing.T) {
	old := maxCoverArena
	maxCoverArena = 64
	defer func() { maxCoverArena = old }()
	rng := rand.New(rand.NewSource(71))
	theta := tp.Equi(0, 0)
	for trial := 0; trial < 20; trial++ {
		r := denseRandRelation(rng, "r", 10+rng.Intn(20))
		s := denseRandRelation(rng, "s", 10+rng.Intn(20))
		want := ScalarAlign(r, s, theta, Config{})
		got := Align(r, s, theta, Config{})
		fragmentsEqual(t, fmt.Sprintf("guard trial %d", trial), want, got)
		// The join paths route through the same guard.
		wantRows := renderRows(scalarJoin(tp.OpLeft, r, s, theta, Config{}, nil))
		gotRows := renderRows(Join(tp.OpLeft, r, s, theta, Config{}))
		if fmt.Sprint(wantRows) != fmt.Sprint(gotRows) {
			t.Fatalf("guard trial %d: join rows diverge under fallback", trial)
		}
	}
}

func renderRows(rel *tp.Relation) []string {
	out := make([]string, 0, rel.Len())
	for _, tu := range rel.Tuples {
		out = append(out, fmt.Sprintf("%v | %s | %s | %.17g", tu.Fact, tu.Lineage, tu.T, tu.Prob))
	}
	return out
}

// TestJoinByteIdenticalToScalar pins the whole operator: every production
// plan — the indexed aligner under the hash config, the scalar aligner
// under the nested-loop config and under a non-equi θ — runs the fused
// streaming union and must produce the same relation (row order, lineage
// rendering, probabilities) as the materialize-then-union oracle, on all
// five operators. The streamed pre-union rows plus the duplicates killed
// at the merge frontier must equal the rows the oracle materializes.
func TestJoinByteIdenticalToScalar(t *testing.T) {
	ops := []tp.Op{tp.OpInner, tp.OpAnti, tp.OpLeft, tp.OpRight, tp.OpFull}
	for _, plan := range []struct {
		name  string
		theta tp.Theta
		cfg   Config
	}{
		{"hash", tp.Equi(0, 0), Config{}},
		{"nested-loop", tp.Equi(0, 0), Config{NestedLoop: true}},
		{"true-theta", tp.TrueTheta{}, Config{}},
	} {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 40; trial++ {
			r := denseRandRelation(rng, "r", rng.Intn(25))
			s := denseRandRelation(rng, "s", rng.Intn(25))
			for _, op := range ops {
				var ref, st Stats
				want := renderRows(scalarJoin(op, r, s, plan.theta, plan.cfg, &ref))
				out, err := JoinContext(context.Background(), op, r, s, plan.theta, plan.cfg, &st)
				if err != nil {
					t.Fatalf("%s trial %d %v: %v", plan.name, trial, op, err)
				}
				got := renderRows(out)
				if len(want) != len(got) {
					t.Fatalf("%s trial %d %v: %d vs %d rows", plan.name, trial, op, len(want), len(got))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%s trial %d %v: row %d differs:\n  want %s\n  got  %s", plan.name, trial, op, i, want[i], got[i])
					}
				}
				if st.Rows+st.DupAvoided != ref.Rows {
					t.Fatalf("%s trial %d %v: streamed rows %d + dup-avoided %d != oracle rows %d",
						plan.name, trial, op, st.Rows, st.DupAvoided, ref.Rows)
				}
			}
		}
	}
}
