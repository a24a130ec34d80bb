// Command dexsmoke is the end-to-end smoke test behind `make smoke`. It
// builds dexd once and drives it through two phases, each against real
// dexd processes over loopback:
//
//   - Single node: boot dexd on a free port with the slow-query ring armed,
//     drive a short session through the HTTP client (including a cache hit
//     and a traced query), then check the three observability surfaces —
//     the per-response span tree, /admin/slow, and /metrics as valid
//     Prometheus text exposition — before shutting the server down with
//     SIGTERM and verifying a clean exit.
//   - Cluster: start two `dexd -worker` processes and a `dexd
//     -shard-workers` coordinator with the result cache off, answer one
//     count(*) per execution mode at full coverage, SIGKILL a worker and
//     check the degraded coverage equals the surviving fraction, restart
//     the worker blank on its old address and wait for the healer to
//     restore exactly full coverage, then SIGTERM the coordinator and
//     require exit status 0.
//
// It prints one OK line per phase and exits 0 on success; any failure is
// fatal with a diagnostic on stderr.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"dex/internal/metrics"
	"dex/internal/server"
)

// clusterRows is the demo table size the coordinator partitions.
const clusterRows = 200_000

// procs are the dexd processes the smoke started. fatalf kills them before
// exiting, because os.Exit skips deferred calls.
var procs []*os.Process

func fatalf(format string, args ...any) {
	for _, p := range procs {
		p.Kill()
	}
	log.Fatalf(format, args...)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dexsmoke: ")

	tmp, err := os.MkdirTemp("", "dexsmoke")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "dexd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dexd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		log.Fatalf("build dexd: %v", err)
	}

	singleNode(bin)
	fmt.Println("single-node smoke OK")
	cluster(bin)
	fmt.Println("cluster smoke OK")
}

// singleNode checks the observability surfaces of one dexd.
func singleNode(bin string) {
	addr := freeAddr()
	// -slowms 1 so ordinary queries land in the slow ring; -reqlog so the
	// structured request log path is exercised end to end.
	srv, exited := start(bin,
		"-addr", addr,
		"-demo", "sales", "-rows", "200000",
		"-slowms", "1", "-slow-ring", "16",
		"-reqlog",
	)

	cl := server.NewClient("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	waitHealthy(ctx, cl, exited, 5*time.Second)

	id, err := cl.CreateSession(ctx)
	if err != nil {
		fatalf("create session: %v", err)
	}

	// A repeated exact query (second run is a cache hit) plus a traced
	// group-by: together they touch the exact, cached, and traced paths.
	for i := 0; i < 2; i++ {
		if _, err := cl.Query(ctx, id, server.QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}); err != nil {
			fatalf("exact query (run %d): %v", i+1, err)
		}
	}
	res, err := cl.Query(ctx, id, server.QueryRequest{
		SQL:   "SELECT region, AVG(amount) FROM sales GROUP BY region",
		Trace: true,
	})
	if err != nil {
		fatalf("traced query: %v", err)
	}
	if res.Trace == nil {
		fatalf("trace:true response carried no span tree")
	}
	if res.Trace.Name != "query" || len(res.Trace.Children) == 0 {
		fatalf("malformed trace root: name=%q children=%d", res.Trace.Name, len(res.Trace.Children))
	}

	expo, err := cl.Metrics(ctx)
	if err != nil {
		fatalf("scrape /metrics: %v", err)
	}
	if err := metrics.ValidateExposition(strings.NewReader(expo)); err != nil {
		fatalf("/metrics exposition invalid: %v", err)
	}
	for _, want := range []string{
		`dex_queries_total{outcome="completed"}`,
		`dex_queries_total{outcome="cache_hit"}`,
		`dex_query_duration_seconds_bucket`,
	} {
		if !strings.Contains(expo, want) {
			fatalf("/metrics missing expected series %s", want)
		}
	}

	slow, err := cl.Slow(ctx)
	if err != nil {
		fatalf("fetch /admin/slow: %v", err)
	}
	if len(slow) == 0 {
		fatalf("/admin/slow empty despite -slowms 1")
	}
	if slow[0].Trace == nil {
		fatalf("slow ring entry has no trace")
	}

	if err := cl.EndSession(ctx, id); err != nil {
		fatalf("end session: %v", err)
	}

	// SIGTERM must drain and exit cleanly.
	terminate(srv, exited)
}

// cluster runs the kill → degraded coverage → restart → heal drill on a
// coordinator over two worker processes.
func cluster(bin string) {
	workerAddrs := []string{freeAddr(), freeAddr()}
	workers := make([]*os.Process, len(workerAddrs))
	for i, wa := range workerAddrs {
		var exited <-chan error
		workers[i], exited = start(bin, "-worker", wa)
		waitListening(wa, exited)
	}
	defer func() {
		for _, w := range workers {
			w.Kill()
		}
	}()

	// The result cache is off so a cached healthy count cannot mask the
	// kill.
	addr := freeAddr()
	coord, exited := start(bin,
		"-addr", addr,
		"-shard-workers", strings.Join(workerAddrs, ","),
		"-rows", fmt.Sprint(clusterRows),
		"-heal-interval", "100ms",
		"-cache-rows", "0",
	)
	cl := server.NewClient("http://" + addr)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	waitHealthy(ctx, cl, exited, 30*time.Second)

	st, err := cl.Stats(ctx)
	if err != nil {
		fatalf("cluster stats: %v", err)
	}
	if st.Shard == nil {
		fatalf("coordinator reports no shard fleet")
	}
	placed := st.Shard.Rows
	if placed != clusterRows {
		fatalf("coordinator placed %d rows, want %d", placed, clusterRows)
	}

	id, err := cl.CreateSession(ctx)
	if err != nil {
		fatalf("cluster session: %v", err)
	}
	count := func(mode string) *server.QueryResult {
		res, err := cl.Query(ctx, id, server.QueryRequest{SQL: "SELECT count(*) FROM sales", Mode: mode})
		if err != nil {
			fatalf("cluster %s count: %v", mode, err)
		}
		if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
			fatalf("cluster %s count: empty result", mode)
		}
		return res
	}
	rows := func(res *server.QueryResult) int64 {
		n, ok := res.Rows[0][0].(float64)
		if !ok {
			fatalf("count(*) value %v (%T) is not a number", res.Rows[0][0], res.Rows[0][0])
		}
		return int64(n)
	}

	for _, mode := range []string{"exact", "cracked", "approx", "online"} {
		res := count(mode)
		if res.Degraded || res.Coverage != 1 {
			fatalf("mode %s: healthy fleet answered degraded=%v coverage=%v", mode, res.Degraded, res.Coverage)
		}
		if mode == "exact" && rows(res) != placed {
			fatalf("exact count %d != placed rows %d", rows(res), placed)
		}
	}

	// Kill worker 0: the exact count must degrade with a coverage equal
	// to the surviving fraction of the placed rows.
	workers[0].Kill()
	for deadline := time.Now().Add(15 * time.Second); ; {
		res := count("exact")
		if res.Degraded {
			got := rows(res)
			if res.Coverage <= 0 || res.Coverage >= 1 {
				fatalf("degraded count with coverage %v", res.Coverage)
			}
			if want := float64(got) / float64(placed); math.Abs(res.Coverage-want) > 1e-9 {
				fatalf("coverage %v does not match surviving rows %d/%d", res.Coverage, got, placed)
			}
			break
		}
		if time.Now().After(deadline) {
			fatalf("killed worker never degraded a query")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Restart the worker blank on its old address: the healer must
	// re-stage its partition and return the fleet to exactly full
	// coverage without a coordinator restart.
	workers[0], _ = start(bin, "-worker", workerAddrs[0])
	for deadline := time.Now().Add(30 * time.Second); ; {
		res := count("exact")
		if !res.Degraded && res.Coverage == 1 {
			if got := rows(res); got != placed {
				fatalf("healed count %d != placed rows %d", got, placed)
			}
			break
		}
		if time.Now().After(deadline) {
			fatalf("fleet never healed to full coverage (degraded=%v coverage=%v)", res.Degraded, res.Coverage)
		}
		time.Sleep(50 * time.Millisecond)
	}

	if err := cl.EndSession(ctx, id); err != nil {
		fatalf("end cluster session: %v", err)
	}
	terminate(coord, exited)
}

// freeAddr reserves a free loopback port, releases it and returns its
// address. The race window between Close and dexd's own listen is
// tolerable for a smoke test on localhost.
func freeAddr() string {
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		fatalf("reserve port: %v", err)
	}
	defer l.Close()
	return l.Addr().String()
}

// start launches dexd with args; its exit status arrives on the returned
// channel.
func start(bin string, args ...string) (*os.Process, <-chan error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		fatalf("start dexd %v: %v", args, err)
	}
	procs = append(procs, cmd.Process)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	return cmd.Process, exited
}

// waitHealthy polls the HTTP API until it answers, failing if dexd exits
// first or does not come up within limit.
func waitHealthy(ctx context.Context, cl *server.Client, exited <-chan error, limit time.Duration) {
	for deadline := time.Now().Add(limit); ; {
		if _, err := cl.Tables(ctx); err == nil {
			return
		}
		select {
		case err := <-exited:
			fatalf("dexd exited during startup: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			fatalf("dexd not healthy at %s within %s", cl.BaseURL, limit)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// waitListening polls a worker's shard-protocol port until it accepts.
func waitListening(addr string, exited <-chan error) {
	for deadline := time.Now().Add(5 * time.Second); ; {
		if c, err := net.Dial("tcp", addr); err == nil {
			c.Close()
			return
		}
		select {
		case err := <-exited:
			fatalf("dexd -worker %s exited during startup: %v", addr, err)
		default:
		}
		if time.Now().After(deadline) {
			fatalf("dexd -worker not listening on %s within 5s", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// terminate sends SIGTERM and requires dexd to drain and exit 0.
func terminate(p *os.Process, exited <-chan error) {
	if err := p.Signal(syscall.SIGTERM); err != nil {
		fatalf("signal dexd: %v", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			fatalf("dexd exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		fatalf("dexd did not exit within 15s of SIGTERM")
	}
}
