package align

import (
	"context"

	"tpjoin/internal/par"
	"tpjoin/internal/tp"
)

// ParallelJoin evaluates a TA join with equi-θ by hash-partitioning both
// inputs on the join key and running the full alignment reduction (both
// conventional joins, both sub-queries of a negation join, and the
// duplicate-eliminating union) on every partition concurrently — the PNJ
// parallelism model (core.ParallelJoin) applied to the alignment
// baseline, on the same shared scaffolding (internal/par). Facts with
// different keys never match, split or cover one another, and the
// union's duplicates (the unmatched fragments
// computed by both sub-queries) always stem from one outer tuple, so
// per-partition dedup equals global dedup and partition results simply
// concatenate. Output tuple order is deterministic (partition-major,
// union order within a partition) but differs from the sequential
// baseline's global union order.
func ParallelJoin(op tp.Op, r, s *tp.Relation, eq tp.EquiTheta, cfg Config, workers int) *tp.Relation {
	out, _ := ParallelJoinContext(context.Background(), op, r, s, eq, cfg, workers, nil)
	return out
}

// ParallelJoinContext is ParallelJoin under a query context: the
// partition workers observe ctx between partitions (par.Run)
// and inside the alignment drains (every alignCancelCheck outer tuples
// and every drainCancelWork units within one tuple's fragment drain), so
// a timeout or client disconnect aborts the materializing Open
// mid-alignment. On cancellation all workers are joined before
// returning, the result is nil and the error is ctx.Err(); a worker
// panic re-surfaces on the calling goroutine, where the query surfaces'
// panic-to-error containment catches it. A non-nil st records the
// effective worker and partition counts and aggregates the
// per-partition alignment counters (passes, fragments, pre-union rows)
// for EXPLAIN ANALYZE.
func ParallelJoinContext(ctx context.Context, op tp.Op, r, s *tp.Relation, eq tp.EquiTheta, cfg Config, workers int, st *Stats) (*tp.Relation, error) {
	var sized func(workers, parts int)
	var partStats []Stats
	if st != nil {
		sized = func(workers, parts int) {
			st.Workers, st.Partitions = int64(workers), int64(parts)
			partStats = make([]Stats, parts)
		}
	}
	out, err := par.Join(ctx, r, s, eq, workers, tp.MergeProbs(r, s), sized, func(p int, rp, sp *tp.Relation) (*tp.Relation, error) {
		var ps *Stats
		if st != nil {
			ps = &partStats[p]
		}
		return JoinContext(ctx, op, rp, sp, eq, cfg, ps)
	})
	if err != nil {
		return nil, err
	}
	for p := range partStats {
		st.AlignPasses += partStats[p].AlignPasses
		st.Fragments += partStats[p].Fragments
		st.Rows += partStats[p].Rows
		st.DupAvoided += partStats[p].DupAvoided
		st.ProbBatches += partStats[p].ProbBatches
		st.MemoHits += partStats[p].MemoHits
	}
	return out, nil
}
