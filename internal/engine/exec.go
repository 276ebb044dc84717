package engine

import (
	"fmt"
	"math"

	"orca/internal/base"
	"orca/internal/md"
	"orca/internal/ops"
	"orca/internal/props"
)

// Options configure one execution.
type Options struct {
	// Budget caps total work units (tuple operations plus weighted network
	// tuples); 0 means unlimited. Exceeding it returns ErrBudget — the
	// deterministic analogue of the paper's 10000 s query timeout.
	Budget int64
	// NetWeight is the work-unit cost of moving one tuple (default 3).
	NetWeight int64
	// StagePenalty multiplies per-operator work to simulate engines that
	// materialize between stages (the Stinger/MapReduce execution style);
	// 0 or 1 means none.
	StagePenalty float64
	// MemLimitRows caps per-segment hash-table sizes for engines that
	// cannot spill (the Impala simulation); 0 means unlimited.
	MemLimitRows int
	// PipelineMemRows caps the cumulative per-segment intermediate result
	// volume for engines that keep whole pipelines in memory without any
	// spill path (the Presto 0.52 simulation, §7.3.2); 0 means unlimited.
	PipelineMemRows int
}

// ExecStats reports deterministic work counters.
type ExecStats struct {
	TupleOps   int64
	NetTuples  int64
	MaxHashMem int
}

// Work combines the counters into a single work-unit figure comparable
// across plans and engines.
func (s ExecStats) Work(netWeight int64) int64 {
	return s.TupleOps + netWeight*s.NetTuples
}

// Result is the output of one query execution.
type Result struct {
	Schema []base.ColID
	Rows   []Row
	Stats  ExecStats
	// TimedOut reports that the execution budget was exhausted.
	TimedOut bool
}

// result is the executor's intermediate value: one row slice per segment.
type result struct {
	schema []base.ColID
	parts  [][]Row
	rep    bool // every segment holds the same full copy
}

func (r *result) sch() schema { return schemaOf(r.schema) }

// oneCopy returns the partitions collapsed to a single logical copy.
func (r *result) oneCopy() [][]Row {
	if !r.rep {
		return r.parts
	}
	out := make([][]Row, len(r.parts))
	out[0] = r.parts[0]
	return out
}

// totalRows counts rows in one logical copy.
func (r *result) totalRows() int {
	n := 0
	for _, p := range r.oneCopy() {
		n += len(p)
	}
	return n
}

type executor struct {
	c        *Cluster
	opts     Options
	stats    ExecStats
	penalty  float64
	cte      map[int]*result
	bindings map[base.ColID]base.Datum
	pipeRows int64
}

// Execute runs a physical plan against the cluster and returns the gathered
// result rows.
func (c *Cluster) Execute(plan *ops.Expr, opts Options) (*Result, error) {
	if opts.NetWeight == 0 {
		opts.NetWeight = 3
	}
	pen := opts.StagePenalty
	if pen < 1 {
		pen = 1
	}
	ex := &executor{c: c, opts: opts, penalty: pen, cte: make(map[int]*result)}
	res, err := ex.exec(plan)
	out := &Result{Stats: ex.stats}
	if err == ErrBudget {
		out.TimedOut = true
		return out, nil
	}
	if err != nil {
		return nil, err
	}
	out.Schema = res.schema
	for _, p := range res.oneCopy() {
		out.Rows = append(out.Rows, p...)
	}
	return out, nil
}

// charge accounts local work and enforces the budget.
func (ex *executor) charge(n int) error {
	ex.stats.TupleOps += int64(float64(n) * ex.penalty)
	return ex.check()
}

func (ex *executor) chargeNet(n int) error {
	ex.stats.NetTuples += int64(n)
	return ex.check()
}

func (ex *executor) check() error {
	if ex.opts.Budget > 0 && ex.stats.Work(ex.opts.NetWeight) > ex.opts.Budget {
		return ErrBudget
	}
	return nil
}

func (ex *executor) exec(e *ops.Expr) (*result, error) {
	res, err := ex.execOp(e)
	if err != nil {
		return nil, err
	}
	if ex.opts.PipelineMemRows > 0 {
		ex.pipeRows += int64(res.totalRows())
		if ex.pipeRows/int64(ex.c.Segments) > int64(ex.opts.PipelineMemRows) {
			return nil, ErrOOM
		}
	}
	return res, nil
}

// The execOp dispatch switch is generated into dispatch.gen.go from the
// physical operator definitions in defs/; the exec<Op> methods in this
// package are the hand-written executors it calls, each taking the typed
// operator plus the plan node carrying its children.

// execSpool materializes its input (charged as one pass over the rows).
func (ex *executor) execSpool(_ *ops.Spool, e *ops.Expr) (*result, error) {
	in, err := ex.exec(e.Children[0])
	if err != nil {
		return nil, err
	}
	if err := ex.charge(in.totalRows()); err != nil {
		return nil, err
	}
	return in, nil
}

// execSequence runs the producer side for effect, then returns the second
// child's result.
func (ex *executor) execSequence(_ *ops.Sequence, e *ops.Expr) (*result, error) {
	if _, err := ex.exec(e.Children[0]); err != nil {
		return nil, err
	}
	return ex.exec(e.Children[1])
}

// ---------------------------------------------------------------------------
// Scans

func (ex *executor) execScan(op *ops.Scan, _ *ops.Expr) (*result, error) {
	t, ok := ex.c.tables[op.Rel.Name]
	if !ok {
		return nil, fmt.Errorf("engine: table %q not loaded", op.Rel.Name)
	}
	out := &result{schema: colIDs(op.Cols), parts: make([][]Row, ex.c.Segments)}
	out.rep = op.Rel.Policy == md.DistReplicated
	ectx := &evalCtx{sch: out.sch(), bindings: ex.bindings}

	partIdx := allParts(t)
	if op.Pruned {
		partIdx, _ = ops.PrunePartitions(op.Rel, op.Cols, op.Filter)
	}
	// A scan of the stored rows' own columns emits them; others copy kept rows.
	own := len(op.Cols) == len(op.Rel.Columns)
	for i, c := range op.Cols {
		own = own && c.Ordinal == i
	}
	scratch := make(Row, len(op.Cols))
	for _, p := range partIdx {
		for s := 0; s < ex.c.Segments; s++ {
			rows := t.parts[p][s]
			if err := ex.charge(len(rows)); err != nil {
				return nil, err
			}
			for _, r := range rows {
				pr := r
				if !own {
					pr = projectRow(scratch, r, op.Cols)
				}
				keep, err := ectx.truthy(op.Filter, pr)
				if err != nil {
					return nil, err
				}
				if keep && !own {
					pr = append(Row(nil), pr...)
				}
				if keep {
					out.parts[s] = append(out.parts[s], pr)
				}
			}
		}
	}
	return out, nil
}

func (ex *executor) execIndexScan(op *ops.IndexScan, _ *ops.Expr) (*result, error) {
	t, ok := ex.c.tables[op.Rel.Name]
	if !ok {
		return nil, fmt.Errorf("engine: table %q not loaded", op.Rel.Name)
	}
	out := &result{schema: colIDs(op.Cols), parts: make([][]Row, ex.c.Segments)}
	ectx := &evalCtx{sch: out.sch(), bindings: ex.bindings}
	// Index access is simulated: only matching tuples are charged, plus a
	// logarithmic descent per segment.
	scratch := make(Row, len(op.Cols))
	for p := range t.parts {
		for s := 0; s < ex.c.Segments; s++ {
			rows := t.parts[p][s]
			if err := ex.charge(int(math.Log2(float64(len(rows) + 2)))); err != nil {
				return nil, err
			}
			for _, r := range rows {
				pr := projectRow(scratch, r, op.Cols)
				keep, err := ectx.truthy(op.EqFilter, pr)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue
				}
				if err := ex.charge(1); err != nil {
					return nil, err
				}
				keep, err = ectx.truthy(op.Residual, pr)
				if err != nil {
					return nil, err
				}
				if keep {
					out.parts[s] = append(out.parts[s], append(Row(nil), pr...))
				}
			}
		}
	}
	// Index scans deliver key order within each segment.
	ord := indexOrder(op)
	sortParts(out, ord)
	return out, nil
}

func indexOrder(op *ops.IndexScan) props.OrderSpec {
	items := make([]props.OrderItem, len(op.Index.KeyCols))
	for i, ord := range op.Index.KeyCols {
		items[i] = props.OrderItem{Col: op.Cols[ord].ID}
	}
	return props.OrderSpec{Items: items}
}

func allParts(t *Table) []int {
	out := make([]int, len(t.parts))
	for i := range out {
		out[i] = i
	}
	return out
}

// projectRow maps a stored row onto the scan's column references, into dst.
func projectRow(dst, r Row, cols []*md.ColRef) Row {
	for i, c := range cols {
		dst[i] = r[c.Ordinal]
	}
	return dst
}

func colIDs(cols []*md.ColRef) []base.ColID {
	out := make([]base.ColID, len(cols))
	for i, c := range cols {
		out[i] = c.ID
	}
	return out
}
