package exec

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/workload"
)

// TestScanCounterContract pins what the shared scan counters mean, which
// /admin/stats, the cancellation tests and the benchmark's rows-scanned
// figure all read: Scanned is the rows the predicate visits plus the rows
// aggregation accumulates, and ZoneSkipped the morsels pruning skipped.
// Neither may depend on how the query runs, so every Kernels × AggKernels
// combination must leave the same deltas, on plain and encoded tables, at
// one worker and four. The table is clustered on amount so the range
// predicate actually prunes.
func TestScanCounterContract(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sales, err := workload.Sales(rng, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if sales, err = sales.SortBy("amount", false); err != nil {
		t.Fatal(err)
	}
	enc, _, err := storage.EncodeTable(sales, storage.EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wheres := []struct {
		name string
		p    *expr.Pred
	}{
		{"dense", nil},
		{"between", expr.Between("amount", storage.Float(80), storage.Float(120))},
		{"or", expr.Or(
			expr.Cmp("amount", expr.LT, storage.Float(60)),
			expr.Cmp("qty", expr.GT, storage.Int(7)))},
	}
	selects := []struct {
		name    string
		items   []SelectItem
		groupBy []string
	}{
		{"scalar", []SelectItem{{Col: "amount", Agg: AggSum}, {Col: "*", Agg: AggCount}}, nil},
		{"group", []SelectItem{{Col: "region"}, {Col: "amount", Agg: AggAvg}}, []string{"region"}},
		{"project", []SelectItem{{Col: "region"}, {Col: "amount"}}, nil},
	}
	pruned := false
	for _, tbl := range []struct {
		name string
		t    *storage.Table
	}{{"plain", sales}, {"encoded", enc}} {
		for _, w := range wheres {
			for _, sel := range selects {
				for _, workers := range []int{1, 4} {
					q := Query{Select: sel.items, Where: w.p, GroupBy: sel.groupBy}
					label := fmt.Sprintf("%s/%s/%s/par=%d", tbl.name, w.name, sel.name, workers)
					var want [2]int64
					for i, mode := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
						var scanned, skipped atomic.Int64
						opt := ExecOptions{Parallelism: workers, MorselSize: 1024, ZoneMap: true,
							Kernels: mode[0], AggKernels: mode[1], Scanned: &scanned, ZoneSkipped: &skipped}
						if _, err := ExecuteOpts(tbl.t, q, opt); err != nil {
							t.Fatalf("%s kernels=%v agg=%v: %v", label, mode[0], mode[1], err)
						}
						got := [2]int64{scanned.Load(), skipped.Load()}
						if i == 0 {
							want = got
							pruned = pruned || got[1] > 0
							continue
						}
						if got != want {
							t.Errorf("%s kernels=%v agg=%v: scanned/zone_skipped = %v, want %v as with both off",
								label, mode[0], mode[1], got, want)
						}
					}
				}
			}
		}
	}
	if !pruned {
		t.Fatal("no query pruned a morsel: the zone-skip half of the contract went unchecked")
	}
}
