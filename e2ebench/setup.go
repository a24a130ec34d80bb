package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/server"
	"dex/internal/shard"
	"dex/internal/storage"
	dexworkload "dex/internal/workload"
)

// system is one in-process dexd with its sales table: the engine, the
// optional worker fleet, and the loopback HTTP server in front of them.
type system struct {
	eng   *core.Engine
	fleet *shard.LocalFleet
	svc   *server.Server
	srv   *http.Server
	url   string
	// served is closed when the serve goroutine has returned.
	served chan struct{}
	// transport carries every client connection of the run; it allows
	// at most one connection per client.
	transport *http.Transport

	phases setupPhases
}

// setupPhases times each step of building the system; their sum is one
// setup_s sample.
type setupPhases struct {
	generate time.Duration // workload.Sales
	register time.Duration // Engine.Register, column encoding included
	fleet    time.Duration // shard.StartLocalFleet: workers staged
	serve    time.Duration // server.New and the loopback listener
	warm     time.Duration // warm-up queries
}

func (p setupPhases) total() time.Duration {
	return p.generate + p.register + p.fleet + p.serve + p.warm
}

// startSystem builds the system the way idebench.StartLocal does: the
// dexd engine defaults (degradation, column encoding, zone maps, scan and
// aggregation kernels), its admission envelope and result-cache budget,
// and, for a sharded workload, an in-process fleet behind the coordinator.
func startSystem(shards int) (*system, error) {
	s := &system{served: make(chan struct{})}
	t := time.Now()
	sales, err := generateSales()
	if err != nil {
		return nil, err
	}
	s.phases.generate = time.Since(t)

	t = time.Now()
	s.eng = core.New(core.Options{
		Seed:    tableSeed,
		Degrade: true,
		Encode:  true,
		Exec:    exec.ExecOptions{ZoneMap: true, Kernels: true, AggKernels: true},
	})
	if err := s.eng.Register(sales); err != nil {
		return nil, fmt.Errorf("register sales: %w", err)
	}
	s.phases.register = time.Since(t)

	cfg := server.Config{
		MaxInFlight:  8,
		MaxQueue:     256,
		QueueTimeout: 500 * time.Millisecond,
		CacheRows:    1 << 20,
		// Request-level errors (a 504 per missed online deadline) are
		// counted by the benchmark; logging each would only add noise.
		Log: log.New(io.Discard, "", 0),
	}
	if shards > 0 {
		t = time.Now()
		s.fleet, err = shard.StartLocalFleet(context.Background(), shard.FleetConfig{
			Shards: shards, Rows: tableRows, Seed: tableSeed,
		})
		if err != nil {
			return nil, fmt.Errorf("start fleet: %w", err)
		}
		cfg.Shard = s.fleet.Coord
		s.phases.fleet = time.Since(t)
	}

	t = time.Now()
	s.svc = server.New(s.eng, cfg)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if s.fleet != nil {
			s.fleet.Close()
		}
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.url = "http://" + lis.Addr().String()
	s.srv = &http.Server{Handler: s.svc}
	go func() {
		defer close(s.served)
		s.srv.Serve(lis) // returns http.ErrServerClosed once close stops it
	}()
	s.transport = &http.Transport{MaxConnsPerHost: maxClients, MaxIdleConnsPerHost: maxClients}
	s.phases.serve = time.Since(t)
	return s, nil
}

// generateSales builds the benchmark's sales table. The oracle builds it
// again after the timed phase instead of keeping the unencoded copy
// alive through it: the copy's millions of strings would add garbage
// collector work a served dexd does not have.
func generateSales() (*storage.Table, error) {
	t, err := dexworkload.Sales(rand.New(rand.NewSource(tableSeed)), tableRows)
	if err != nil {
		return nil, fmt.Errorf("generate sales: %w", err)
	}
	return t, nil
}

// client returns a dexd client over the run's shared transport, with
// the default retry policy a real client would use. Every client of a
// run needs its own seed: the seed also draws the Idempotency-Key of
// each session create, and a repeated key replays an older session.
func (s *system) client(seed int64) *server.Client {
	cl := server.NewClient(s.url)
	cl.HTTP = &http.Client{Transport: s.transport}
	cl.Retry = &server.RetryPolicy{Seed: seed}
	return cl
}

// close drains the server, stops the serve goroutine and waits for it,
// and tears the fleet down.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.svc.Drain(ctx)
	s.srv.Close()
	<-s.served
	s.transport.CloseIdleConnections()
	if s.fleet != nil {
		s.fleet.Close()
	}
}

// warm runs the workload's warm-up on every client, concurrently, from
// seeds the timed stream never uses, so lazy zone maps, first-touch
// buffer pools, connections and the result cache are in the state they
// keep before timing starts. An error other than a missed deadline means
// the system cannot serve the workload at all.
//
// The result cache serves exact answers only. In exact mode the warm-up
// first issues, once, every statement that recurs across sessions (see
// recurring): a long-lived dexd answers those from its cache. Without
// them the hit rate climbed from about 27% to 50% over a timed phase,
// at a pace set by how many queries the host got through, which turned
// host-speed noise into a throughput spread of up to 22% of the median.
func (s *system) warm(w workload, seed int64) error {
	t := time.Now()
	defer func() { s.phases.warm = time.Since(t) }()
	var rec []string
	if w.mode == "exact" {
		rec = recurring(w, seed)
	}
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			cl := s.client(sessionSeed(seed, phaseWarm, c, -1))
			run := func(sqls []string) error {
				sid, err := cl.CreateSession(ctx)
				if err != nil {
					return err
				}
				defer cl.EndSession(ctx, sid) // a failing server shows in the next create
				for _, sql := range sqls {
					_, err := cl.Query(ctx, sid, server.QueryRequest{SQL: sql, Mode: w.mode, TimeoutMS: deadline.Milliseconds()})
					var se *server.StatusError
					if err != nil && !(errors.As(err, &se) && se.Status == http.StatusGatewayTimeout) {
						return fmt.Errorf("warm-up %q: %w", sql, err)
					}
				}
				return nil
			}
			var mine []string
			for i := c; i < len(rec); i += w.clients {
				mine = append(mine, rec[i])
			}
			var sessions [][]string
			if len(mine) > 0 {
				sessions = append(sessions, mine)
			}
			for i := 0; i < w.warmSessions; i++ {
				var sqls []string
				for _, o := range w.session(sessionSeed(seed, phaseWarm, c, i)) {
					sqls = append(sqls, o.sql)
				}
				sessions = append(sessions, sqls)
			}
			for _, sqls := range sessions {
				if err := run(sqls); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// recurScan is how many sessions recurring draws. In idebench sessions
// the statements that recur are the 203 pan tiles, the 24 overviews and
// full-range roll-ups and refines. 200 sessions find about 85% of the
// tiles and overviews, the rest being the rarest tiles, and about 45 of
// the others.
const recurScan = 200

// recurring returns, in first-seen order, the statements that appear in
// more than one of recurScan sessions drawn from warm-up seeds.
func recurring(w workload, seed int64) []string {
	sessions := map[string]int{}
	var order []string
	for i := 0; i < recurScan; i++ {
		seen := map[string]bool{}
		for _, o := range w.session(sessionSeed(seed, phaseWarm, maxClients, i)) {
			if seen[o.sql] {
				continue
			}
			seen[o.sql] = true
			if sessions[o.sql] == 0 {
				order = append(order, o.sql)
			}
			sessions[o.sql]++
		}
	}
	var out []string
	for _, sql := range order {
		if sessions[sql] > 1 {
			out = append(out, sql)
		}
	}
	return out
}

// setUp builds the system setupReps times, keeps the last build and
// warms it. setup_s is the median build time plus the warm-up; the
// phases are the per-phase medians. Only the kept build is warmed: on
// the fleet the warm-up takes about 11 s, and warming every build would
// not fit the benchmark's runs in their time.
func setUp(w workload, seed int64) (*system, time.Duration, setupPhases, error) {
	var all []setupPhases
	var sys *system
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			// Return the previous table's memory before the next build,
			// so every build starts from the same heap.
			runtime.GC()
			debug.FreeOSMemory()
		}
		s, err := startSystem(w.shards)
		if err != nil {
			return nil, 0, setupPhases{}, err
		}
		sys = s
		all = append(all, s.phases)
	}
	if err := sys.warm(w, seed); err != nil {
		sys.close()
		return nil, 0, setupPhases{}, err
	}
	med := func(f func(setupPhases) time.Duration) time.Duration {
		ds := make([]time.Duration, len(all))
		for i, p := range all {
			ds[i] = f(p)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	phases := setupPhases{
		generate: med(func(p setupPhases) time.Duration { return p.generate }),
		register: med(func(p setupPhases) time.Duration { return p.register }),
		fleet:    med(func(p setupPhases) time.Duration { return p.fleet }),
		serve:    med(func(p setupPhases) time.Duration { return p.serve }),
		warm:     sys.phases.warm,
	}
	return sys, med(setupPhases.total) + phases.warm, phases, nil
}
