package bench

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

// TestKernelScanNeverSlower guards the kernel dispatch the way
// TestParallelScanNeverSlower guards the morsel scheduler: a typed-kernel
// filtered scan must never fall below 0.9x the generic path (kernel time at
// most generic/0.9), at the mid selectivity where a branchy selection loop
// would be at its worst. Best-of-reps timing plus a small absolute slack
// absorbs scheduler jitter; the headline speedups are E33's to report, this
// test only pins "the kernel path is never a regression".
func TestKernelScanNeverSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under -race: instrumentation swamps the scan loop")
	}
	const rows = 1_000_000
	rng := rand.New(rand.NewSource(33))
	tab, err := kernelBenchTable(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name string
		p    *expr.Pred
	}{
		{"cmp-10pct", expr.Cmp("v", expr.LT, storage.Float(10))},
		{"between-10pct", expr.Between("v", storage.Float(50), storage.Float(60))},
	}
	for _, qq := range queries {
		q := exec.Query{
			Select: []exec.SelectItem{{Col: "amount", Agg: exec.AggSum}},
			Where:  qq.p,
		}
		run := func(opt exec.ExecOptions) func() error {
			return func() error {
				_, err := exec.ExecuteOpts(tab, q, opt)
				return err
			}
		}
		generic, kernel := alternateBestOf(t, 7,
			run(exec.ExecOptions{Parallelism: 1}), run(exec.ExecOptions{Parallelism: 1, Kernels: true}))
		const slack = 2 * time.Millisecond
		limit := generic + generic/9 + slack // generic/0.9, plus jitter allowance
		t.Logf("%s: rows=%d GOMAXPROCS=%d generic=%v kernel=%v limit=%v",
			qq.name, rows, runtime.GOMAXPROCS(0), generic, kernel, limit)
		if kernel > limit {
			t.Errorf("%s: kernel scan %v exceeds 0.9x-floor limit %v (generic %v)",
				qq.name, kernel, limit, generic)
		}
	}
}
