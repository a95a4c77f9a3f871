package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"regexp"
	"strings"

	"tpjoin/internal/client"
	"tpjoin/internal/server"
	"tpjoin/internal/shell"
	"tpjoin/internal/tp"
)

// digest summarizes a row sequence: a 64-bit FNV-1a hash over every wire
// field of every row, in order, plus the row count. Two responses agree
// exactly when their digests do (up to hash collisions).
type digest struct {
	sum  uint64
	rows int
}

// rowHasher accumulates a digest row by row.
type rowHasher struct {
	h    hash.Hash64
	rows int
	buf  [8]byte
}

func newRowHasher() *rowHasher { return &rowHasher{h: fnv.New64a()} }

func (d *rowHasher) str(s string) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(len(s)))
	d.h.Write(d.buf[:])
	d.h.Write([]byte(s))
}

func (d *rowHasher) u64(x uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], x)
	d.h.Write(d.buf[:])
}

func (d *rowHasher) add(r server.Row) {
	d.u64(uint64(len(r.Fact)))
	for _, f := range r.Fact {
		d.str(f)
	}
	d.str(r.Lineage)
	d.u64(uint64(r.TStart))
	d.u64(uint64(r.TEnd))
	d.u64(math.Float64bits(r.Prob))
	d.rows++
}

func (d *rowHasher) digest() digest { return digest{sum: d.h.Sum64(), rows: d.rows} }

// responseDigest digests the rows of a response as decoded by the client.
func responseDigest(resp *server.Response) digest {
	d := newRowHasher()
	for _, r := range resp.Rows {
		d.add(r)
	}
	return d.digest()
}

// checkRows compares a row response with its reference digest.
func checkRows(resp *server.Response, want digest) error {
	if resp.Kind != server.KindRows {
		return fmt.Errorf("response kind %q, want rows", resp.Kind)
	}
	if resp.RowCount != len(resp.Rows) {
		return fmt.Errorf("row_count %d but %d rows", resp.RowCount, len(resp.Rows))
	}
	if got := responseDigest(resp); got != want {
		return fmt.Errorf("rows differ from the reference (%d rows, digest %x; want %d rows, digest %x)",
			got.rows, got.sum, want.rows, want.sum)
	}
	return nil
}

// reference holds the expected answers of a workload's statements,
// computed in process by the same shell/plan/engine pipeline the server
// runs, on the same files loaded the same way, under the physical strategy
// the server's AUTO picker chose for each operator. Strategies fragment
// time differently (TA returns several times NJ's rows for the same
// answer), so the reference must run the strategy the server ran for its
// rows to compare byte for byte.
type reference struct {
	picks   map[string]string            // op → strategy the server's AUTO pick named
	full    map[string]digest            // op → digest of the unfiltered join
	byKey   map[string]map[string]digest // op → r.Key → digest of the filtered join
	sTuples int                          // tuple count of s (the refresh copy)
}

var strategyRE = regexp.MustCompile(`strategy=([A-Z]+) \(auto\)`)

// keyDigest is the expected digest of op filtered to key; a key the join
// result lacks expects zero rows.
func (ref *reference) keyDigest(op, key string) digest {
	if d, ok := ref.byKey[op][key]; ok {
		return d
	}
	return newRowHasher().digest()
}

// readPicks asks the server, with EXPLAIN, which strategy its AUTO picker
// chooses for each read operator of the workload.
func readPicks(c *client.Client, w *workload, keys []string) (map[string]string, error) {
	picks := make(map[string]string)
	ops := w.ops
	if w.ctasOp != "" {
		ops = append([]string{w.ctasOp}, ops...)
	}
	for _, op := range ops {
		resp, err := c.Query(context.Background(), "EXPLAIN "+w.readSQL(op, keys))
		if err != nil {
			return nil, fmt.Errorf("EXPLAIN %s: %w", op, err)
		}
		m := strategyRE.FindStringSubmatch(resp.Message)
		if m == nil {
			return nil, fmt.Errorf("EXPLAIN %s names no auto strategy:\n%s", op, resp.Message)
		}
		picks[op] = m[1]
	}
	return picks, nil
}

// buildReference evaluates every operator the workload's statements use
// in process and digests the results.
func buildReference(w *workload, in *inputs, picks map[string]string) (*reference, error) {
	ref := &reference{
		picks:   picks,
		full:    make(map[string]digest),
		byKey:   make(map[string]map[string]digest),
		sTuples: in.s.Len(),
	}
	cat, err := in.catalog()
	if err != nil {
		return nil, err
	}
	for op, strat := range picks {
		core := shell.NewCore(cat)
		if _, err := core.Eval(context.Background(), "SET strategy = "+strings.ToLower(strat)); err != nil {
			return nil, err
		}
		res, err := core.Eval(context.Background(), w.joinSQL(op))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", op, err)
		}
		full, byKey := digestRelation(res.Rel)
		ref.full[op], ref.byKey[op] = full, byKey
	}
	return ref, nil
}

// digestRelation digests rel's rows as the server puts them on the wire,
// in full and per value of the first column — r.Key, which `WHERE r.Key =
// k` above the join selects while keeping the join's row order.
func digestRelation(rel *tp.Relation) (digest, map[string]digest) {
	full := newRowHasher()
	perKey := make(map[string]*rowHasher)
	for _, t := range rel.Tuples {
		row := wireRow(t)
		full.add(row)
		k, ok := perKey[row.Fact[0]]
		if !ok {
			k = newRowHasher()
			perKey[row.Fact[0]] = k
		}
		k.add(row)
	}
	byKey := make(map[string]digest, len(perKey))
	for k, h := range perKey {
		byKey[k] = h.digest()
	}
	return full.digest(), byKey
}

// wireRow renders a tuple exactly as the server's encodeRows does: fact
// values and the lineage formula as strings.
func wireRow(t tp.Tuple) server.Row {
	fact := make([]string, len(t.Fact))
	for i, v := range t.Fact {
		fact[i] = v.String()
	}
	return server.Row{Fact: fact, Lineage: fmt.Sprintf("%s", t.Lineage), TStart: t.T.Start, TEnd: t.T.End, Prob: t.Prob}
}
