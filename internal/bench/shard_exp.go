package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/idebench"
	"dex/internal/protocol"
	"dex/internal/server"
	"dex/internal/shard"
	"dex/internal/workload"
)

func init() {
	register(Experiment{
		ID:     "E32",
		Title:  "Distributed scatter/gather: shard-count scaling and degradation",
		Source: "MapReduce-era scatter/gather (Dean/Ghemawat); online aggregation fleets (BlinkDB, Hellerstein et al.)",
		Run:    runE32,
	})
}

// e32Cell is one shard-count measurement in the JSON baseline.
type e32Cell struct {
	Shards    int     `json:"shards"`
	Processes bool    `json:"worker_processes"`
	Rows      int64   `json:"rows_placed"`
	Qps       float64 `json:"qps"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	Queries   int64   `json:"queries"`
	Failed    int64   `json:"failed"`
}

type e32Baseline struct {
	Rows       int64     `json:"rows"`
	Seed       int64     `json:"seed"`
	Clients    int       `json:"clients"`
	Cells      []e32Cell `json:"cells"`
	KillShards int       `json:"kill_demo_shards"`
	KillCov    float64   `json:"kill_demo_coverage"`
	// HealMS is how long the healer took to restore coverage to exactly
	// 1.0 after the killed worker came back blank.
	HealMS float64 `json:"kill_demo_heal_ms"`
}

// runE32 measures the distributed execution path the way the scatter/
// gather literature frames it: the same closed-loop idebench sessions
// against the same HTTP surface, with the sales table hash-partitioned
// across 1, 2 and 4 dexd workers. At full size the workers are separate
// OS processes reached over loopback TCP (the deployment shape); quick
// mode keeps them in-process so the test binary never re-executes itself.
//
// Read the throughput column with the host in mind: on a host of one or
// two cores the workers, coordinator and clients share the CPU, so shards
// cannot buy parallel CPU here — what the numbers isolate is the protocol
// overhead of scatter/gather (serialize, frame, merge) against the win
// from cracking smaller per-shard partitions. On a multi-core fleet the same
// harness measures real scale-out; the parity checks are what this run
// certifies unconditionally: every shard count returns byte-identical
// exact answers, and killing a worker degrades coverage honestly instead
// of failing or inventing rows.
func runE32(w io.Writer, cfg Config) error {
	rows := cfg.Scale(200_000, 40, 4_000)
	clients := 6
	perClient := 25
	if cfg.Quick {
		clients, perClient = 2, 6
	}
	seed := cfg.Seed

	// Single-node oracle answer for the parity check.
	oracle := core.New(core.Options{Seed: seed})
	sales, err := workload.Sales(rand.New(rand.NewSource(seed)), rows)
	if err != nil {
		return err
	}
	if err := oracle.Register(sales); err != nil {
		return err
	}

	base := e32Baseline{Rows: int64(rows), Seed: seed, Clients: clients}
	tab := NewTable("shards", "procs", "placed", "qps", "p50_ms", "p95_ms", "queries", "failed")
	for _, n := range []int{1, 2, 4} {
		cell, err := runE32Cell(cfg, n, rows, clients, perClient)
		if err != nil {
			return fmt.Errorf("E32 shards=%d: %w", n, err)
		}
		base.Cells = append(base.Cells, *cell)
		procs := "in-proc"
		if cell.Processes {
			procs = "multi"
		}
		tab.Row(n, procs, cell.Rows, fmt.Sprintf("%.1f", cell.Qps),
			fmt.Sprintf("%.2f", cell.P50MS), fmt.Sprintf("%.2f", cell.P95MS),
			cell.Queries, cell.Failed)
	}
	fmt.Fprintf(w, "closed-loop idebench sessions (think time 0), %d users x %d ops, exact mode, rows=%d\n",
		clients, perClient, rows)
	fmt.Fprintf(w, "GOMAXPROCS=%d, fleet and clients on one host: shard counts isolate protocol overhead, not parallel CPU\n\n",
		runtime.GOMAXPROCS(0))
	tab.Fprint(w)

	// Degradation + healing demo: kill one of 3 workers, show the query
	// still answers with the surviving fraction as coverage, then restart
	// the worker blank and time the healer restoring exactly full coverage.
	kcov, healMS, err := runE32Kill(rows, seed)
	if err != nil {
		return fmt.Errorf("E32 kill demo: %w", err)
	}
	base.KillShards = 3
	base.KillCov = kcov
	base.HealMS = healMS
	fmt.Fprintf(w, "\nkill demo: 1 of 3 workers killed -> count(*) degraded, coverage=%.3f (never extrapolated)\n", kcov)
	fmt.Fprintf(w, "heal demo: worker restarted blank -> re-staged, coverage=1.000 after %.0f ms\n", healMS)

	if cfg.JSONPath != "" {
		blob, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", cfg.JSONPath)
	}
	return nil
}

// startFleet boots n workers — separate processes at full size, in-process
// in quick mode — and returns the bootstrapped coordinator plus teardown.
func startFleet(cfg Config, n, rows int) (*shard.Coordinator, bool, func(), error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Healing stays on for every measured cell: the parity gates certify
	// that the healer's background probes never disturb a healthy fleet.
	if cfg.Quick {
		f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{Shards: n, Rows: rows, Seed: cfg.Seed, Heal: true})
		if err != nil {
			return nil, false, nil, err
		}
		return f.Coord, false, f.Close, nil
	}
	pf, err := shard.SpawnWorkers(n, cfg.Seed)
	if err != nil {
		return nil, false, nil, err
	}
	coord, err := shard.New(shard.Config{
		Spec:    shard.Spec{Table: "sales", Column: "amount", Scheme: shard.Hash, Shards: n},
		Workers: pf.Addrs,
		Heal:    true,
	})
	if err != nil {
		pf.Close()
		return nil, false, nil, err
	}
	if err := coord.Bootstrap(ctx, protocol.Load{Kind: "sales", Rows: rows, Seed: cfg.Seed}); err != nil {
		coord.Close()
		pf.Close()
		return nil, false, nil, err
	}
	teardown := func() {
		coord.Close()
		pf.Close()
	}
	return coord, true, teardown, nil
}

func runE32Cell(cfg Config, n, rows, clients, perClient int) (*e32Cell, error) {
	coord, procs, teardown, err := startFleet(cfg, n, rows)
	if err != nil {
		return nil, err
	}
	defer teardown()

	eng := core.New(core.Options{Seed: cfg.Seed})
	sales, err := workload.Sales(rand.New(rand.NewSource(cfg.Seed)), rows)
	if err != nil {
		return nil, err
	}
	if err := eng.Register(sales); err != nil {
		return nil, err
	}
	srv := server.New(eng, server.Config{Shard: coord, MaxInFlight: 8, MaxQueue: 256})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := server.NewClient(ts.URL)
	defer cl.HTTP.CloseIdleConnections()

	// Parity gate before measuring anything: the fleet must place every
	// row and count(*) must equal the single-node total.
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		return nil, err
	}
	res, err := cl.Query(ctx, id, server.QueryRequest{SQL: "SELECT COUNT(*) FROM sales"})
	if err != nil {
		return nil, err
	}
	cl.EndSession(ctx, id)
	if got := fmt.Sprint(res.Rows[0][0]); got != fmt.Sprint(rows) {
		return nil, fmt.Errorf("parity: distributed count(*)=%s, want %d", got, rows)
	}
	if res.Coverage != 1 || res.Degraded {
		return nil, fmt.Errorf("parity: healthy fleet degraded=%v coverage=%v", res.Degraded, res.Coverage)
	}

	// Closed loop: each client is one idebench user with think time off,
	// and the quality oracle pass is skipped since exact answers score 0.
	rep, err := idebench.Run(ctx, cl, idebench.Config{
		Users:         clients,
		Seed:          cfg.Seed,
		Mode:          "exact",
		Deadline:      5 * time.Second,
		ThinkScale:    0,
		User:          idebench.UserConfig{Ops: perClient},
		QualitySample: -1,
	})
	if err != nil {
		return nil, err
	}
	answered := rep.OK + rep.Degraded + rep.Late
	return &e32Cell{
		Shards:    n,
		Processes: procs,
		Rows:      coord.Snapshot().Rows,
		Qps:       rep.QPS,
		P50MS:     rep.P50MS,
		P95MS:     rep.P95MS,
		Queries:   answered,
		Failed:    rep.Issued - answered,
	}, nil
}

// runE32Kill demonstrates graceful degradation and self-healing on an
// in-process fleet (kill semantics are identical over the wire;
// in-process keeps the demo deterministic and cheap): the kill drops
// coverage to the exact surviving fraction, the blank restart triggers a
// re-stage, and the healer must return coverage to exactly 1.0.
func runE32Kill(rows int, seed int64) (cov, healMS float64, err error) {
	ctx := context.Background()
	f, err := shard.StartLocalFleet(ctx, shard.FleetConfig{
		Shards: 3, Rows: rows, Seed: seed,
		Heal: true, HealInterval: 25 * time.Millisecond, RepartitionAfter: -1,
	})
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	snap := f.Coord.Snapshot()
	f.KillShard(0)
	st := exec.Query{Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount}}}
	res, err := f.Coord.Execute(ctx, "sales", st, core.Exact)
	if err != nil {
		return 0, 0, err
	}
	if !res.Degraded || res.Coverage >= 1 || res.Coverage <= 0 {
		return 0, 0, fmt.Errorf("kill demo: degraded=%v coverage=%v", res.Degraded, res.Coverage)
	}
	want := float64(snap.Rows-snap.Shards[0].Rows) / float64(snap.Rows)
	if res.Coverage != want {
		return 0, 0, fmt.Errorf("kill demo: coverage %v, want surviving fraction %v", res.Coverage, want)
	}

	if err := f.RestartShard(0); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for deadline := t0.Add(30 * time.Second); f.Coord.Coverage() != 1; {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("heal demo: coverage stuck at %v", f.Coord.Coverage())
		}
		time.Sleep(5 * time.Millisecond)
	}
	healMS = float64(time.Since(t0).Microseconds()) / 1e3
	healed, err := f.Coord.Execute(ctx, "sales", st, core.Exact)
	if err != nil {
		return 0, 0, err
	}
	if healed.Degraded || healed.Coverage != 1 {
		return 0, 0, fmt.Errorf("heal demo: degraded=%v coverage=%v after heal", healed.Degraded, healed.Coverage)
	}
	if got := healed.Table.Column(0).Value(0).AsInt(); got != int64(rows) {
		return 0, 0, fmt.Errorf("heal demo: count %d != %d after heal", got, rows)
	}
	return res.Coverage, healMS, nil
}
