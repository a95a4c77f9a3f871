package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"

	"tpjoin/internal/catalog"
	"tpjoin/internal/dataset"
	"tpjoin/internal/server"
	"tpjoin/internal/tp"
)

// workload is one traffic mix: a generated relation pair and the
// statements of its (at most two) closed-loop sessions.
type workload struct {
	name    string
	dataset string // "meteo" or "webkit"
	n       int    // generator size: n tuples over both relations
	prefix  string // relation-name prefix: "m_" (meteo) or "w_" (webkit)
	// ops are the TP join operators the read statements use ("LEFT",
	// "ANTI"); the reference and the traced replay cover each.
	ops []string
	// ctasOp is the operator the writer's CREATE TABLE AS runs, if any.
	ctasOp string
	// keyed read statements filter the join result on r.Key = $1.
	keyed bool
	// lockstep sessions run in rounds: each round every session issues
	// its perRound statements, and the next round starts when all are
	// done, so every read overlaps the same work.
	lockstep bool
	// turns sessions take turns: one statement is in flight at a time,
	// issued by session 0, then 1, then 0 again. A read then has the
	// host's CPUs to itself, beside the server's garbage collector and
	// the generator, instead of contending with a second read for them.
	turns bool
	// sessions builds the sessions' statement streams over the drawn keys.
	sessions func(w *workload, keys []string, ref *reference, seed int64) []sessionSpec
	// warm lists the statements run once at set-up, after loading, so the
	// measured window starts with the statistics and plan caches filled
	// and the server heap grown.
	warm func(w *workload, keys []string) []string
}

// sessionSpec is one session: statements issued once before the measured
// window (PREPAREs), then a closed loop of next(0), next(1), ...
type sessionSpec struct {
	prepare  []string
	next     func(i int) stmt
	perRound int // statements per lockstep round (1 when 0)
}

// stmt is one statement and the check of its response.
type stmt struct {
	text  string
	write bool
	check func(*server.Response) error
}

// The workloads. meteo-report and webkit-lookup are sized so one run of
// run_seconds completes at least 100 reads; meteo-refresh is the smallest
// meteo size at which AUTO reliably picks TA. BENCHMARK.json and
// perfbench/rationale.json record why each exists and which layers it
// loads.
var workloads = []*workload{
	{
		name: "meteo-report", dataset: "meteo", n: 2500, prefix: "m_",
		ops: []string{"LEFT", "ANTI"}, turns: true,
		sessions: func(w *workload, _ []string, ref *reference, _ int64) []sessionSpec {
			next := func(i int) stmt {
				op := readMix[i%len(readMix)]
				return readStmt(w.joinSQL(op), ref.full[op])
			}
			return []sessionSpec{{next: next}, {next: next}}
		},
		warm: func(w *workload, _ []string) []string {
			return []string{w.joinSQL("LEFT"), w.joinSQL("ANTI")}
		},
	},
	{
		name: "webkit-lookup", dataset: "webkit", n: 40000, prefix: "w_",
		ops: []string{"LEFT", "ANTI"}, keyed: true, turns: true,
		sessions: func(w *workload, keys []string, ref *reference, seed int64) []sessionSpec {
			specs := make([]sessionSpec, 2)
			for si := range specs {
				rng := rand.New(rand.NewPCG(uint64(seed), uint64(si)))
				specs[si].prepare = w.prepares()
				specs[si].next = func(i int) stmt {
					op := readMix[i%len(readMix)]
					key := keys[rng.IntN(len(keys))]
					return readStmt(w.executeSQL(op, key), ref.keyDigest(op, key))
				}
			}
			return specs
		},
		warm: func(w *workload, keys []string) []string {
			return append(w.prepares(), w.executeSQL("LEFT", keys[0]), w.executeSQL("ANTI", keys[0]))
		},
	},
	{
		name: "meteo-refresh", dataset: "meteo", n: 12000, prefix: "m_",
		ops: []string{"LEFT"}, ctasOp: "ANTI", keyed: true, lockstep: true,
		sessions: func(w *workload, keys []string, ref *reference, seed int64) []sessionSpec {
			rng := rand.New(rand.NewPCG(uint64(seed), 0))
			reader := sessionSpec{
				prepare: w.prepares(),
				next: func(int) stmt {
					key := keys[rng.IntN(len(keys))]
					return readStmt(w.executeSQL("LEFT", key), ref.keyDigest("LEFT", key))
				},
			}
			writer := sessionSpec{perRound: 2, next: func(i int) stmt {
				if i%2 == 0 {
					return writeStmt(w.copySQL(), w.prefix+"s", ref.sTuples)
				}
				return writeStmt(w.antiCTASSQL(), w.prefix+"anti", ref.full[w.ctasOp].rows)
			}}
			return []sessionSpec{reader, writer}
		},
		warm: func(w *workload, keys []string) []string {
			return append(w.prepares(), w.executeSQL("LEFT", keys[0]), w.copySQL(), w.antiCTASSQL())
		},
	},
}

// readMix is the cycle of operators each meteo-report and webkit-lookup
// session reads with: two LEFT to one ANTI, because LEFT answers take
// longer than ANTI answers on both (webkit-lookup: about 180 against
// 115 ms) and with an even mix the median read would fall in the gap
// between the two, where a few reads more or less on either side move it.
var readMix = []string{"LEFT", "LEFT", "ANTI"}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func (w *workload) rel(side string) string { return w.prefix + side }

// joinSQL is the unfiltered TP join of r and s on Key.
func (w *workload) joinSQL(op string) string {
	r, s := w.rel("r"), w.rel("s")
	return fmt.Sprintf("SELECT * FROM %s TP %s JOIN %s ON %s.Key = %s.Key", r, op, s, r, s)
}

// filteredSQL is joinSQL restricted to one key; the filter applies above
// the join, so the whole join runs for every key.
func (w *workload) filteredSQL(op, key string) string {
	return fmt.Sprintf("%s WHERE %s.Key = '%s'", w.joinSQL(op), w.rel("r"), key)
}

// readSQL is the statement text of a read of op as the planner sees it.
func (w *workload) readSQL(op string, keys []string) string {
	if w.keyed {
		return w.filteredSQL(op, keys[0])
	}
	return w.joinSQL(op)
}

func prepName(op string) string { return "q_" + op }

func (w *workload) prepares() []string {
	var out []string
	for _, op := range w.ops {
		out = append(out, fmt.Sprintf("PREPARE %s AS %s WHERE %s.Key = $1", prepName(op), w.joinSQL(op), w.rel("r")))
	}
	return out
}

func (w *workload) executeSQL(op, key string) string {
	return fmt.Sprintf("EXECUTE %s ('%s')", prepName(op), key)
}

// copySQL re-registers s as a copy of itself: the answer is unchanged, but
// the catalog entry, its statistics and every cached plan over it are
// replaced.
func (w *workload) copySQL() string {
	return fmt.Sprintf("CREATE TABLE %s AS SELECT * FROM %s", w.rel("s"), w.rel("s"))
}

func (w *workload) antiCTASSQL() string {
	return fmt.Sprintf("CREATE TABLE %s AS %s", w.rel("anti"), w.joinSQL(w.ctasOp))
}

func readStmt(text string, want digest) stmt {
	return stmt{text: text, check: func(resp *server.Response) error { return checkRows(resp, want) }}
}

func writeStmt(text, name string, tuples int) stmt {
	want := fmt.Sprintf("created %s: %d tuples\n", name, tuples)
	return stmt{text: text, write: true, check: func(resp *server.Response) error {
		if resp.Message != want {
			return fmt.Errorf("got %q, want %q", resp.Message, want)
		}
		return nil
	}}
}

// inputs are the generated relations of one run, saved where the server
// loads them with \loadb.
type inputs struct {
	dir    string // the server's working directory
	r, s   *tp.Relation
	keys   []string // the distinct keys of r, sorted
	rFile  string   // file names relative to dir
	sFile  string
	sizeKB float64
}

// generate builds the workload's relations from seed and saves them in the
// binary catalog format under dir.
func generate(w *workload, n int, seed int64, dir string) (*inputs, error) {
	var r, s *tp.Relation
	switch w.dataset {
	case "meteo":
		r, s = dataset.Meteo(n, seed)
	case "webkit":
		r, s = dataset.Webkit(n, seed)
	default:
		return nil, fmt.Errorf("unknown dataset %q", w.dataset)
	}
	in := &inputs{dir: dir, rFile: "r.tpr", sFile: "s.tpr"}
	for _, f := range []struct {
		name string
		rel  *tp.Relation
	}{{in.rFile, r}, {in.sFile, s}} {
		path := filepath.Join(dir, f.name)
		if err := catalog.SaveBinary(path, f.rel); err != nil {
			return nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		in.sizeKB += float64(st.Size()) / 1024
	}
	// Reload through the same decoder the server's \loadb uses, so the
	// reference and the replay see exactly what the server sees.
	var err error
	if in.r, err = loadInput(dir, in.rFile, w.rel("r")); err != nil {
		return nil, err
	}
	if in.s, err = loadInput(dir, in.sFile, w.rel("s")); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, t := range in.r.Tuples {
		if k := t.Fact[0].String(); !seen[k] {
			seen[k] = true
			in.keys = append(in.keys, k)
		}
	}
	sort.Strings(in.keys)
	return in, nil
}

func loadInput(dir, file, name string) (*tp.Relation, error) {
	rel, err := catalog.LoadBinary(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	rel.Name = name
	return rel, nil
}

// catalog returns a fresh catalog holding the run's two relations.
func (in *inputs) catalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	if err := cat.Register(in.r); err != nil {
		return nil, err
	}
	if err := cat.Register(in.s); err != nil {
		return nil, err
	}
	return cat, nil
}
