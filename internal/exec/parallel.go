// Morsel-driven execution. ExecuteCtx plans each query once — the row leaf,
// the zone pruners and the visitor — and runs it through one morsel
// driver, scan.drive, the only code that hands morsels of a table's rows
// to internal/par. Each morsel passes the exec/scan fault site, consults
// the zone pruners, runs the leaf into a selection, advances the live
// counter and goes to the visitor:
//
//   - collect (projections, and aggregations the typed kernels decline)
//     merges the per-morsel selections in morsel order; the generic scalar
//     aggregate and hash group-by then fan over the merged selection;
//   - a typed scalar or group accumulator (aggkernel.go) folds the morsel
//     in place, so typed aggregation never builds a global selection.
//
// Everything downstream of aggregation (HAVING, ORDER BY, LIMIT) stays
// sequential because it sees at most the grouped output.
//
// Morsel execution is semantically transparent: selections merge back in
// morsel order (ascending row positions, as a sequential scan produces),
// aggregate states are a commutative monoid under merge (NaN inputs — the
// engine's NULL — are skipped, see aggState.add), and merged groups are
// re-sorted by their first-seen position. The only observable difference
// from Execute, the sequential oracle, is the floating-point association
// order of SUM/AVG partials, which can move the result by an ulp.
//
// ExecuteCtx adds the service layer's two needs on top: cooperative
// cancellation (the scheduler checks ctx between morsel claims, so a
// cancelled query stops within one morsel per worker) and a live
// rows-scanned counter (ExecOptions.Scanned) that advances morsel by morsel
// while the query runs — the observability hook /admin/stats reads.
package exec

import (
	"context"
	"sort"
	"sync/atomic"

	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/par"
	"dex/internal/storage"
	"dex/internal/trace"
)

// disableTrace skips the per-query span extraction entirely — the
// pre-tracing baseline the overhead guard in trace_guard_test.go
// compares against. Test-only; never set in production code.
var disableTrace bool

// fpScan injects scan-level faults: hit once per morsel the driver runs,
// and once per Execute call with a non-trivial WHERE. Latency policies
// here are how tests make a query overrun its deadline on demand (and so
// how the degradation contract in core is exercised).
var fpScan = fault.Register("exec/scan")

// ExecOptions tunes query execution. The four switches (ZoneMap, Kernels,
// AggKernels, and core's Encode) only pick the leaf, the pruners or the
// visitor of the one morsel driver; every combination returns Execute's
// answer, which the parity matrices and fuzzers check.
type ExecOptions struct {
	// Parallelism is the number of workers: 0 means GOMAXPROCS, 1 runs the
	// morsels one after another on the calling goroutine.
	Parallelism int
	// MorselSize is the rows per scheduling unit (0 = par.DefaultMorselSize).
	// Inputs that fit in a single morsel always run on one worker.
	MorselSize int
	// Scanned, when non-nil, is incremented live with the number of rows
	// each operator stage visits (predicate evaluation and aggregate
	// accumulation). Several queries may share one counter; it advances
	// with morsel granularity while execution is in flight, so a stalled
	// counter means a stalled (or cancelled) query.
	Scanned *atomic.Int64
	// ZoneSkipped, when non-nil, accumulates the number of morsels the
	// zone-map pruner skipped (always 0 with ZoneMap off). Like Scanned it
	// may be shared across queries; /admin/stats and the shard Stats probe
	// read it to make pruning effectiveness observable.
	ZoneSkipped *atomic.Int64
	// ZoneMap enables zone-map scan skipping: the driver consults
	// lazily-built per-morsel min/max summaries and skips morsels whose
	// value range cannot intersect a recognized range predicate (see
	// zonemap.go).
	ZoneMap bool
	// Kernels enables typed predicate kernels: specializable WHERE clauses
	// compile to raw-slice scan loops over pooled selection buffers
	// (expr.CompileKernel); everything else runs the generic
	// expr.FilterRange leaf.
	Kernels bool
	// AggKernels enables typed aggregation kernels (see aggkernel.go):
	// aggregate queries accumulate over raw column slices, fused with the
	// scan morsel by morsel — no global selection vector. Independent of
	// Kernels: the typed visitor compiles its own predicate kernel, and
	// runs behind the generic leaf when the WHERE clause does not compile.
	AggKernels bool
	// AggKernelHits / AggKernelFallbacks, when non-nil, count aggregate
	// queries dispatched to the typed path vs falling back to the generic
	// operators (with AggKernels off neither moves). Shared across queries
	// like Scanned; /admin/stats and /metrics read them.
	AggKernelHits      *atomic.Int64
	AggKernelFallbacks *atomic.Int64
}

func (o ExecOptions) pool() *par.Pool {
	return par.NewPool(par.Options{Parallelism: o.Parallelism, MorselSize: o.MorselSize})
}

// addTo adds v to an optional shared counter.
func addTo(c *atomic.Int64, v int64) {
	if c != nil {
		c.Add(v)
	}
}

// tracer carries the per-query observability state through the operators:
// the cancellation context and the optional live scan counter.
type tracer struct {
	ctx     context.Context
	scanned *atomic.Int64
}

func (tr tracer) count(rows int) { addTo(tr.scanned, int64(rows)) }

// ExecuteOpts runs the query with the given execution options through the
// morsel driver, under a background context. Parallelism 1 runs the same
// plan on one worker; Execute is the separate sequential oracle.
func ExecuteOpts(t *storage.Table, q Query, opt ExecOptions) (*storage.Table, error) {
	return ExecuteCtx(context.Background(), t, q, opt)
}

// ExecuteCtx is ExecuteOpts under a context: cancellation is checked
// between morsel claims, so a cancelled or timed-out query returns
// ctx.Err() within one morsel's worth of work per worker, never mid-morsel.
func ExecuteCtx(ctx context.Context, t *storage.Table, q Query, opt ExecOptions) (*storage.Table, error) {
	if len(q.Select) == 0 {
		return nil, ErrEmptySelect
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The span is extracted once per query, never per morsel; when the
	// request is untraced sp is nil and every call below is a no-op.
	var sp *trace.Span
	if !disableTrace {
		sp = trace.FromContext(ctx)
	}
	stage := "project"
	if len(q.GroupBy) > 0 {
		stage = "group_by"
	} else if q.HasAggregates() {
		stage = "aggregate"
	}
	// The visitor: a typed accumulator whenever the aggregation compiles.
	var ak *aggKernel
	aggFallback := ""
	if opt.AggKernels && stage != "project" {
		ak, aggFallback = compileAggKernel(t, q)
		if ak != nil {
			addTo(opt.AggKernelHits, 1)
		} else {
			addTo(opt.AggKernelFallbacks, 1)
		}
	}
	s := &scan{tracer: tracer{ctx: ctx, scanned: opt.Scanned}, t: t, pool: opt.pool(), fused: ak != nil}
	if ak != nil {
		kreason, err := s.plan(q.Where, true, opt.ZoneMap)
		if err != nil {
			return nil, err
		}
		st := sp.Child(stage)
		out, err := ak.aggregate(s, q)
		addTo(opt.ZoneSkipped, s.skipped.Load())
		s.describe(st, opt.ZoneMap)
		st.SetInt("rows_matched", s.matched.Load())
		st.SetBool("agg_kernel", true)
		st.SetBool("fused", true)
		if s.where != nil {
			s.describeKernel(st, kreason)
		}
		return s.closeStage(sp, st, out, err, q)
	}

	scanSp := sp.Child("scan")
	kreason, err := s.plan(q.Where, opt.Kernels, opt.ZoneMap)
	var sel []int
	if err == nil {
		sel, err = s.collect()
	}
	s.describe(scanSp, opt.ZoneMap)
	scanSp.SetInt("rows_out", int64(len(sel)))
	if opt.Kernels {
		s.describeKernel(scanSp, kreason)
	}
	scanSp.End()
	addTo(opt.ZoneSkipped, s.skipped.Load())
	if err != nil {
		return nil, err
	}
	st := sp.Child(stage)
	var out *storage.Table
	if stage == "project" {
		st.SetInt("rows_out", int64(len(sel)))
		if err = ctx.Err(); err == nil {
			out, err = project(t, sel, q)
		}
		return s.closeStage(sp, st, out, err, q)
	}
	st.SetInt("rows_in", int64(len(sel)))
	if opt.AggKernels {
		st.SetBool("agg_kernel", false)
		st.SetStr("agg_kernel_fallback", aggFallback)
	}
	if stage == "aggregate" {
		out, err = scalarAggregatePar(t, sel, q, s.pool, s.tracer)
	} else {
		out, err = groupByPar(t, sel, q, s.pool, s.tracer)
	}
	return s.closeStage(sp, st, out, err, q)
}

// closeStage ends the operator stage's span, then applies the sequential
// HAVING/ORDER BY/LIMIT tail under its own span.
func (s *scan) closeStage(sp, st *trace.Span, out *storage.Table, err error, q Query) (*storage.Table, error) {
	if err == nil && len(q.GroupBy) > 0 {
		st.SetInt("groups", int64(out.NumRows()))
	}
	st.End()
	if err != nil {
		return nil, err
	}
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	fsp := sp.Child("finish")
	out, err = finish(out, q)
	fsp.End()
	return out, err
}

// scan is one query's morsel driver, configured once by plan: the row
// leaf (a compiled kernel, expr.FilterRange, or none for a trivial WHERE),
// the zone pruners, and whether the visitor accumulates (fused), which
// decides what the live counter sees.
type scan struct {
	tracer
	t       *storage.Table
	pool    *par.Pool
	where   *expr.Pred // nil: trivial WHERE, no leaf
	kern    *expr.Kernel
	pruners []zonePruner
	fused   bool
	// held keeps the collect visitor's pooled buffers claimed until its
	// merge has copied them out; nil when no kernel runs or the visitor
	// folds each selection before the driver returns its buffer.
	held             []*[]int
	matched, skipped atomic.Int64
}

// plan picks the leaf and the pruners. A kernel is compiled only when
// asked for; one that compiles passes the exec/kernel-dispatch fault site
// once, before any morsel runs. It returns the compile fallback reason.
func (s *scan) plan(where *expr.Pred, kernels, zone bool) (string, error) {
	reason := ""
	if kernels {
		if s.kern, reason = expr.CompileKernel(s.t, where); s.kern != nil {
			if err := fpKernel.Hit(); err != nil {
				return reason, err
			}
		}
	}
	if where == nil || where.Kind == expr.KTrue {
		return reason, nil
	}
	s.where = where
	if zone {
		var err error
		if s.pruners, err = zonePruners(s.t, where, s.pool.MorselSize()); err != nil {
			return reason, err
		}
	}
	if s.kern == nil {
		// Validate once up front so workers cannot race on error paths.
		return reason, where.Validate(s.t.Schema())
	}
	return reason, nil
}

// drive is the one morsel loop over the table's rows. Each morsel hits
// the exec/scan fault site, consults the zone pruners, runs the leaf into
// a selection (a pooled buffer under a kernel), counts the rows it touched
// and goes to visit; sel is nil on a dense scan, where visit takes all of
// [lo, hi). The counter sees the rows the predicate visits, plus the rows
// a fused visitor accumulates.
func (s *scan) drive(visit func(worker, lo, hi int, sel []int)) error {
	m := s.pool.MorselSize()
	err := s.pool.ForEachErrCtx(s.ctx, s.t.NumRows(), func(worker, lo, hi int) error {
		if err := fpScan.Hit(); err != nil {
			return err
		}
		for _, pr := range s.pruners {
			if pr.skip(lo / m) {
				// Skipped morsels are not scanned: no rows touched, no
				// progress counted — the live counter reflects real work.
				s.skipped.Add(1)
				return nil
			}
		}
		var sel []int
		switch {
		case s.kern != nil:
			buf := getSel()
			*buf = s.kern.Run(lo, hi, *buf)
			sel = *buf
			if s.held != nil {
				s.held[lo/m] = buf
			} else {
				defer putSel(buf)
			}
		case s.where != nil:
			var err error
			if sel, err = expr.FilterRange(s.t, s.where, lo, hi); err != nil {
				return err
			}
		}
		visit(worker, lo, hi, sel)
		matched, visited := len(sel), hi-lo
		if s.where == nil {
			matched, visited = hi-lo, 0
		}
		if s.fused {
			visited += matched
		}
		s.matched.Add(int64(matched))
		s.count(visited)
		return nil
	})
	if err != nil {
		s.matched.Store(0)
		s.skipped.Store(0)
	}
	return err
}

// collect is the selection visitor: it drives the scan and merges the
// per-morsel selections in morsel order, yielding the ascending positions
// a sequential scan produces. A trivial WHERE needs no scan at all: the
// identity selection touches no data, so nothing counts as scanned, and a
// single cancellation check bounds the latency.
func (s *scan) collect() ([]int, error) {
	if s.where == nil {
		if err := s.ctx.Err(); err != nil {
			return nil, err
		}
		return expr.Filter(s.t, nil)
	}
	parts := make([][]int, s.pool.Morsels(s.t.NumRows()))
	if s.kern != nil {
		s.held = make([]*[]int, len(parts))
		defer func() {
			// Return every claimed buffer — after the merge below has copied
			// the positions out, or on the error/cancellation path.
			for _, b := range s.held {
				if b != nil {
					putSel(b)
				}
			}
		}()
	}
	m := s.pool.MorselSize()
	if err := s.drive(func(_, lo, _ int, sel []int) { parts[lo/m] = sel }); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// describe writes the attributes the scan span and the fused stage span
// share.
func (s *scan) describe(sp *trace.Span, zone bool) {
	n := s.t.NumRows()
	sp.SetInt("rows_in", int64(n))
	sp.SetInt("morsels", int64(s.pool.Morsels(n)))
	sp.SetInt("workers", int64(s.pool.WorkersFor(n)))
	if zone {
		sp.SetInt("zone_skipped", s.skipped.Load())
	}
}

// describeKernel records which leaf ran: the kernel and its leaf count, or
// the reason the predicate did not compile.
func (s *scan) describeKernel(sp *trace.Span, reason string) {
	sp.SetBool("kernel", s.kern != nil)
	if s.kern != nil {
		sp.SetInt("kernel_leaves", int64(s.kern.Leaves()))
	} else if reason != "" {
		sp.SetStr("kernel_fallback", reason)
	}
}

// mergePartials folds per-morsel scalar partials in morsel order. nil
// partials (pruned morsels) contributed nothing.
func mergePartials(q Query, partials [][]*aggState) []*aggState {
	states := newAggStates(q)
	for _, p := range partials {
		if p == nil {
			continue
		}
		for i, st := range states {
			if st != nil {
				st.merge(p[i])
			}
		}
	}
	return states
}

// scalarAggregatePar accumulates per-morsel partial states over the merged
// selection and merges them in morsel order. Morsel-indexed (rather than
// worker-indexed) partials make the merge order — and so the floating-point
// sum — deterministic for a given morsel size, independent of scheduling.
func scalarAggregatePar(t *storage.Table, sel []int, q Query, pool *par.Pool, tr tracer) (*storage.Table, error) {
	inputs, err := scalarInputs(t, q)
	if err != nil {
		return nil, err
	}
	m := pool.MorselSize()
	partials := make([][]*aggState, storage.NumChunks(len(sel), m))
	err = pool.ForEachCtx(tr.ctx, len(sel), func(_, lo, hi int) {
		states := newAggStates(q)
		accumulateScalar(inputs, states, sel, lo, hi)
		partials[lo/m] = states
		tr.count(hi - lo)
	})
	if err != nil {
		return nil, err
	}
	return buildScalarOutput(t, q, mergePartials(q, partials))
}

// groupByPar builds one thread-local hash table per worker over the merged
// selection, merges them, and restores the sequential first-seen group
// order by sorting merged groups on the selection position of their first
// row.
func groupByPar(t *storage.Table, sel []int, q Query, pool *par.Pool, tr tracer) (*storage.Table, error) {
	groupCols, inputs, err := groupInputs(t, q)
	if err != nil {
		return nil, err
	}
	locals := make([]*groupTable, max(1, pool.WorkersFor(len(sel))))
	for i := range locals {
		locals[i] = newGroupTable()
	}
	err = pool.ForEachCtx(tr.ctx, len(sel), func(worker, lo, hi int) {
		locals[worker].accumulate(groupCols, inputs, q, sel, lo, hi)
		tr.count(hi - lo)
	})
	if err != nil {
		return nil, err
	}
	gt := locals[0]
	for _, o := range locals[1:] {
		gt.merge(o)
	}
	sort.Slice(gt.order, func(a, b int) bool {
		return gt.groups[gt.order[a]].first < gt.groups[gt.order[b]].first
	})
	return buildGroupOutput(t, q, inputs, gt)
}
