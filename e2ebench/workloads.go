package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"dex/internal/idebench"
)

// workload is one traffic mix. Every client runs consecutive sessions of
// twelve statements; session(seed) renders one session, so the program
// only ever sees the generated statements.
type workload struct {
	name string
	// mode is the execution mode every query requests.
	mode string
	// clients is how many closed-loop clients drive the workload.
	clients int
	// shards > 0 hash-shards sales over that many in-process workers
	// behind the coordinator.
	shards  int
	session func(seed int64) []op
	// mix is the expected share of each kind of statement in the
	// session stream; the latency and throughput estimators weight
	// samples by it (see mixStats).
	mix []kindShare
	// pool > 0 replays the statements of one fixed set of that many
	// sessions, the same for every seed, instead of fresh sessions; the
	// seed only shuffles their order (see poolSession). pooled holds
	// them, each op's kind being its statement's stratum.
	pool   int
	pooled []op
	// warmSessions is how many sessions each client runs before timing,
	// after the statements that recur across sessions (see system.warm).
	warmSessions int
	// cap > 0 is the timeout_ms the queries send instead of the
	// deadline: the server then lets a query run past the deadline, up
	// to cap, and the deadline is judged at the client alone.
	cap time.Duration
}

// serverTimeout is the timeout the workload's queries send as
// timeout_ms.
func (w workload) serverTimeout() time.Duration {
	if w.cap > 0 {
		return w.cap
	}
	return deadline
}

// kindShare is one kind of statement and its expected share of a
// session.
type kindShare struct {
	name  string
	share float64
}

// op is one statement of a session and its kind, an index
// into the workload's mix.
type op struct {
	sql  string
	kind int
}

// sessionOps is how many statements a session issues.
const sessionOps = 12

// The four workloads stress different layers of the same query path:
// small aggregates over the full table (scan and aggregation kernels,
// zone maps, the result cache), wide row projections (result encoding,
// JSON marshal and client decode), online aggregation (onlineagg, no
// kernels and no cache), and the same exploration stream scattered over
// a fleet (protocol frames and merge).
//
// Every workload runs one client. The exact workloads' queries each use
// both cores already; a second client there only makes the two collide,
// which amplified host-speed drift into a throughput spread of 14-20% of
// the median over ten seeds, and on the fleet flipped whole runs between
// 21 and 30 queries per second on one seed. With one client each,
// explore-exact and explore-fleet also compare single node and fleet on
// equal terms. An online query runs on one core, and two online clients
// left no core spare: a busy loop on one core cut the throughput of two
// clients by a quarter to a half, and did not lower one client's.
var workloads = []workload{
	{
		name:         "explore-exact",
		mode:         "exact",
		clients:      1,
		session:      exploreSession,
		mix:          exploreMix,
		warmSessions: 4,
	},
	{
		name:         "detail-rows",
		mode:         "exact",
		clients:      1,
		session:      detailSession,
		mix:          []kindShare{{"detail", 1}},
		warmSessions: 1,
	},
	// explore-online replays the statements of a fixed pool of two
	// sessions, one grouping by quarter and one by product: 22 distinct
	// statements, about as many as its client gets through in 12 s.
	// Online, a query's cost hinges on its statement, from 70 ms for a
	// refine to a second for a product drill; with fresh sessions per
	// seed, answered throughput spread by 25-46% of its median over five
	// to ten seeds. A run walks the pool in an order its seed shuffles,
	// so a run that stops short of the whole pool has issued a uniform
	// sample of it. Taking the pool's sessions in turn from a seeded
	// start instead, which sessions a run reached moved its throughput by
	// up to a quarter.
	//
	// Its queries send onlineCap as timeout_ms and the 250 ms deadline is
	// judged at the client, the way IDEBench judges it: an answer after
	// it is late, a missed deadline, but answered. When the server cut
	// queries at the deadline, a sixth of the pool's statements finished
	// within a few tens of milliseconds of it, either side, depending on
	// the random order online aggregation drew and on host speed. The
	// answered count then swung with host speed several times over: a
	// busy loop on one core halved it, and two sets of ten runs spread it
	// by 28% and 45% of the median. Answered throughput now falls in
	// proportion as online aggregation slows.
	{
		name:         "explore-online",
		mode:         "online",
		clients:      1,
		session:      exploreSession,
		mix:          exploreMix,
		pool:         2,
		warmSessions: 1,
		cap:          onlineCap,
	},
	{
		name:         "explore-fleet",
		mode:         "exact",
		clients:      1,
		shards:       2,
		session:      exploreSession,
		mix:          exploreMix,
		warmSessions: 4,
	},
}

// onlineCap is explore-online's timeout_ms: far above its slowest
// statement (about a second), so it only bounds a run in which online
// aggregation stalls.
const onlineCap = 10 * time.Second

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			if w.pool > 0 {
				w = withPool(w)
			}
			return w, true
		}
	}
	return workload{}, false
}

// withPool fills in a pooled workload's statements and strata: every
// distinct statement of the pool's sessions is a stratum of its own,
// with the share of the pool's statements it takes.
func withPool(w workload) workload {
	index := map[string]int{}
	var mix []kindShare
	for k := 0; k < w.pool; k++ {
		for _, o := range w.session(poolSessionSeed(k)) {
			i, ok := index[o.sql]
			if !ok {
				i = len(mix)
				index[o.sql] = i
				mix = append(mix, kindShare{name: fmt.Sprintf("%s#%d", w.mix[o.kind].name, i)})
			}
			mix[i].share++
			w.pooled = append(w.pooled, op{sql: o.sql, kind: i})
		}
	}
	for i := range mix {
		mix[i].share /= float64(len(w.pooled))
	}
	w.mix = mix
	return w
}

// poolSession returns session n of a run of a pooled workload. The run
// walks the pool's statements in an order its seed shuffles, twelve to
// a session, and starts over when it has issued them all. However far a
// run gets, the statements it issued are a uniform sample of the pool,
// and a run that gets through the pool has issued each of them.
func (w workload) poolSession(seed int64, n int) []op {
	perm := rand.New(rand.NewSource(seed)).Perm(len(w.pooled))
	out := make([]op, sessionOps)
	for j := range out {
		out[j] = w.pooled[perm[(n*sessionOps+j)%len(perm)]]
	}
	return out
}

// exploreSession is one simulated analyst session from idebench: an
// overview followed by eleven drill, roll-up, pan and refine steps. Think
// times are dropped; the loop is closed.
func exploreSession(seed int64) []op {
	tr := idebench.NewTrace(idebench.UserConfig{}, seed)
	out := make([]op, len(tr.Ops))
	for i, o := range tr.Ops {
		out[i] = op{sql: o.SQL, kind: exploreStratum(o)}
	}
	return out
}

// exploreDims are the GROUP BY columns an idebench overview draws from,
// uniformly.
var exploreDims = []string{"region", "product", "quarter"}

// exploreMix is the expected share of each stratum of a twelve-op
// session. A stratum is an idebench operation kind and, for the kinds
// that group (overview, drill, roll-up), the GROUP BY column. The
// overview opens the session and draws the column, the drills and
// roll-ups keep it, and the other eleven ops follow idebench's default
// mix. The column is drawn once per session and drives its cost (online,
// twenty Zipf-skewed products converge far more slowly than four
// quarters), so the weights also correct for how many sessions of a run
// grouped by each column.
var exploreMix = func() []kindShare {
	m := idebench.DefaultMix()
	rest := 11.0 / 12 / (m.Drill + m.Rollup + m.Pan + m.Refine)
	var out []kindShare
	grouped := func(k idebench.OpKind, share float64) {
		for _, d := range exploreDims {
			out = append(out, kindShare{k.String() + "/" + d, share / float64(len(exploreDims))})
		}
	}
	grouped(idebench.OpOverview, 1.0/12)
	grouped(idebench.OpDrill, m.Drill*rest)
	grouped(idebench.OpRollup, m.Rollup*rest)
	out = append(out,
		kindShare{idebench.OpPan.String(), m.Pan * rest},
		kindShare{idebench.OpRefine.String(), m.Refine * rest})
	return out
}()

// exploreStratum returns the index of o's stratum in exploreMix.
func exploreStratum(o idebench.Op) int {
	name := o.Kind.String()
	if i := strings.LastIndex(o.SQL, " GROUP BY "); i >= 0 {
		name += "/" + o.SQL[i+len(" GROUP BY "):]
	}
	for i, ks := range exploreMix {
		if ks.name == name {
			return i
		}
	}
	panic("e2ebench: idebench issued an operation of no known stratum: " + o.SQL)
}

// detailSession is twelve drill-to-detail projections: every column of
// the rows in an amount window with a qty floor. Each window is sized
// from the amount density so that it holds a drawn number of rows,
// 4,000 to 22,000 (13,000 on average): the answers are wide enough that
// the result wire, not the filter, dominates, and no one window is far
// wider than the rest.
func detailSession(seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	out := make([]op, sessionOps)
	for i := range out {
		target := 4000 + rng.Float64()*18000
		k := 1 + rng.Intn(4)
		lo := 70 + rng.Float64()*160
		width := 1.0
		for it := 0; it < 4; it++ {
			width = target / (tableRows * salesAmountDensity(lo+width/2) * float64(10-k) / 9)
		}
		out[i] = op{sql: fmt.Sprintf(
			"SELECT * FROM sales WHERE amount >= %.4f AND amount < %.4f AND qty >= %d",
			lo, lo+width, k)}
	}
	return out
}

// salesAmountDensity is the density of the amount column workload.Sales
// generates: product p is Zipf(1.3)-distributed over 20 products, amount
// is 50+10p plus N(0, 15) noise, and qty is uniform on 1..9.
func salesAmountDensity(x float64) float64 {
	var z, f float64
	for p := 0; p < 20; p++ {
		w := math.Pow(float64(1+p), -1.3)
		d := (x - 50 - 10*float64(p)) / 15
		z += w
		f += w * math.Exp(-d*d/2) / (15 * math.Sqrt(2*math.Pi))
	}
	return f / z
}

// The phases of a run draw session seeds from disjoint ranges: the top
// two bits of a seed name its phase, so warm-up never issues a session
// the timed stream will issue.
const (
	phaseWarm = iota
	phaseTimed
	phaseTraced
	phaseTimedAfter // the traced run's untraced phase after the traced one
)

// poolSessionSeed returns the seed of session k of a pooled workload's
// pool: the same for every run, in the timed phase's seed range.
func poolSessionSeed(k int) int64 {
	return sessionSeed(0, phaseTimed, 0, k)
}

// sessionSeed derives the seed of session i of one client in one phase
// from the run's workload seed.
func sessionSeed(seed int64, phase, client, i int) int64 {
	var buf [32]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(phase))
	binary.LittleEndian.PutUint64(buf[16:], uint64(client))
	binary.LittleEndian.PutUint64(buf[24:], uint64(i))
	h := fnv.New64a()
	h.Write(buf[:])
	return int64(h.Sum64()>>3) | int64(phase)<<61
}
