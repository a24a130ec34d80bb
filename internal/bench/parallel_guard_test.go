package bench

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/workload"
)

// TestParallelScanNeverSlower guards the morsel scheduler's overhead: a
// parallel filtered scan over 1M rows must never be slower than 1.2x the
// sequential scan. The bound is deliberately generous — on a single-core
// box (GOMAXPROCS=1) the parallel path buys nothing and pays goroutine
// and atomic-cursor overhead, so this test pins "overhead is bounded",
// not "speedup exists". The two sides run alternately, rep by rep, so
// host-speed drift hits both alike; best-of-reps shaves scheduler noise,
// and a small absolute slack absorbs sub-millisecond jitter.
func TestParallelScanNeverSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard skipped under -race: instrumentation inflates atomic-cursor cost")
	}
	const rows = 1_000_000
	rng := rand.New(rand.NewSource(26))
	sales, err := workload.Sales(rng, rows)
	if err != nil {
		t.Fatal(err)
	}
	q := exec.Query{
		Select: []exec.SelectItem{{Col: "product"}, {Col: "amount"}},
		Where:  expr.Cmp("amount", expr.GT, storage.Float(120)),
	}

	run := func(opt exec.ExecOptions) func() error {
		return func() error {
			_, err := exec.ExecuteOpts(sales, q, opt)
			return err
		}
	}
	seq, parl := alternateBestOf(t, 7, run(exec.ExecOptions{Parallelism: 1}), run(exec.ExecOptions{Parallelism: 4}))

	const slack = 2 * time.Millisecond
	limit := seq + seq/5 + slack // 1.2x plus absolute jitter allowance
	t.Logf("rows=%d GOMAXPROCS=%d sequential=%v parallel(4)=%v limit=%v",
		rows, runtime.GOMAXPROCS(0), seq, parl, limit)
	if parl > limit {
		t.Errorf("parallel scan %v exceeds 1.2x sequential %v (limit %v)", parl, seq, limit)
	}
}

// alternateBestOf warms a and b once each, then times them alternately for
// reps rounds and returns each side's best run. Alternating puts both sides
// under the same host-speed drift, which back-to-back blocks of reps do not.
func alternateBestOf(t *testing.T, reps int, a, b func() error) (bestA, bestB time.Duration) {
	t.Helper()
	timed := func(fn func() error) time.Duration {
		start := time.Now()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	timed(a)
	timed(b)
	bestA, bestB = time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < reps; i++ {
		bestA = min(bestA, timed(a))
		bestB = min(bestB, timed(b))
	}
	return bestA, bestB
}
