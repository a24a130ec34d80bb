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

// TestAggKernelNeverSlower pins the aggregation-kernel dispatch the way
// TestKernelScanNeverSlower pins the predicate kernels: with agg kernels
// on, an aggregate query must never fall below 0.9x the same query on the
// PR8 baseline (predicate kernels only, generic accumulation). Covers the
// three fused shapes — dense scalar, filtered scalar, dict group-by — so a
// regression in any accumulator loop or in the fusion plumbing trips it.
// The two sides run alternately, best-of-reps. The headline speedups are
// E34's to report; this test only guards the floor.
func TestAggKernelNeverSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under -race: instrumentation swamps the accumulation loop")
	}
	const rows = 1_000_000
	rng := rand.New(rand.NewSource(34))
	tab, err := kernelBenchTable(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	encTab, _, err := storage.EncodeTable(tab, storage.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		name string
		tbl  *storage.Table
		q    exec.Query
	}{
		{"sum-dense", tab, exec.Query{
			Select: []exec.SelectItem{{Col: "amount", Agg: exec.AggSum}},
		}},
		{"sum-10pct", tab, exec.Query{
			Select: []exec.SelectItem{{Col: "amount", Agg: exec.AggSum}},
			Where:  expr.Cmp("v", expr.LT, storage.Float(10)),
		}},
		{"group-dict", encTab, exec.Query{
			Select:  []exec.SelectItem{{Col: "cat"}, {Col: "amount", Agg: exec.AggSum}},
			GroupBy: []string{"cat"},
		}},
	}
	baseOpt := exec.ExecOptions{Parallelism: 1, Kernels: true}
	aggOpt := exec.ExecOptions{Parallelism: 1, Kernels: true, AggKernels: true}
	for _, qq := range queries {
		run := func(opt exec.ExecOptions) func() error {
			return func() error {
				_, err := exec.ExecuteOpts(qq.tbl, qq.q, opt)
				return err
			}
		}
		base, agg := alternateBestOf(t, 7, run(baseOpt), run(aggOpt))
		const slack = 2 * time.Millisecond
		limit := base + base/9 + slack // base/0.9, plus jitter allowance
		t.Logf("%s: rows=%d GOMAXPROCS=%d baseline=%v aggkernel=%v limit=%v",
			qq.name, rows, runtime.GOMAXPROCS(0), base, agg, limit)
		if agg > limit {
			t.Errorf("%s: agg-kernel path %v exceeds 0.9x-floor limit %v (baseline %v)",
				qq.name, agg, limit, base)
		}
	}
}
