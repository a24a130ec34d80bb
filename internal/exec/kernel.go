// Kernel dispatch for the morsel driver: when ExecOptions.Kernels is set,
// or a typed aggregation asks for it, the driver's plan compiles the WHERE
// predicate into a typed kernel (expr.CompileKernel) and runs it per morsel
// over raw column slices into pooled selection buffers — no boxed Eval per
// row, no per-row allocation. Predicates the compiler rejects run the
// generic expr.FilterRange leaf, and the span records which way the query
// went (kernel / kernel_leaves / kernel_fallback attrs).
//
// Selection-vector lifetime: pooled buffers exist only inside the driver
// and its visitors. Each morsel claims one (reset to length zero — a
// reused buffer must never expose rows from its previous query) and fills
// it. A typed accumulator folds it and the driver returns it at once; the
// collect visitor parks it in a morsel-ordered slice and, after the merge
// copies the positions out, a deferred sweep returns every claimed buffer,
// including on error and cancellation paths. Nothing downstream of the
// scan ever holds a pooled buffer.
package exec

import (
	"sync"
	"sync/atomic"

	"dex/internal/fault"
	"dex/internal/par"
)

// fpKernel injects faults at the kernel-dispatch seam: hit once per query
// that compiles a kernel, before any morsel runs. An error fails the query
// exactly like a scan fault — the caller's degradation contract is
// unchanged.
var fpKernel = fault.Register("exec/kernel-dispatch")

// selPool recycles per-morsel selection buffers across queries.
var selPool = sync.Pool{
	New: func() any {
		s := make([]int, 0, par.DefaultMorselSize)
		return &s
	},
}

// selOutstanding counts pool buffers currently claimed; it must return to
// its starting value after every query, cancelled or not (the leak test's
// hook).
var selOutstanding atomic.Int64

func getSel() *[]int {
	selOutstanding.Add(1)
	buf := selPool.Get().(*[]int)
	*buf = (*buf)[:0] // reset: stale rows from a prior query must be unreachable
	return buf
}

func putSel(buf *[]int) {
	selPool.Put(buf)
	selOutstanding.Add(-1)
}
