package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"dex/internal/idebench"
	"dex/internal/server"
)

// outcomeWrong extends idebench's outcome taxonomy with an answer the
// correctness oracle rejected. Classify never returns it; the oracle
// reclassifies answers into it after the timed phase.
const outcomeWrong = idebench.OutcomeUnclassified + 1

const numOutcomes = int(outcomeWrong) + 1

func outcomeName(o idebench.Outcome) string {
	if o == outcomeWrong {
		return "wrong"
	}
	return o.String()
}

// answer is one answered query as the client saw it.
type answer struct {
	sql     string
	outcome idebench.Outcome
	res     *server.QueryResult
}

// phaseStats is the accounting of one timed phase.
type phaseStats struct {
	wall      time.Duration
	counts    [numOutcomes]int64
	latencies []time.Duration    // every issued query's round trip
	kinds     []int              // the kind of each latency, an index into the mix
	outcomes  []idebench.Outcome // the outcome of each latency
	cached    int64              // answers served from the result cache
	rows      int64              // rows in all answers
	// firstErr is the first error that was not a missed deadline.
	firstErr string
}

func (p *phaseStats) attempted() int64 {
	var n int64
	for _, c := range p.counts {
		n += c
	}
	return n
}

func (p *phaseStats) answered() int64 {
	return p.counts[idebench.OutcomeOK] + p.counts[idebench.OutcomeDegraded] + p.counts[idebench.OutcomeLate]
}

// completed counts the queries the server finished within the closed
// loop: answered, or cut at the deadline with a 504.
func (p *phaseStats) completed() int64 {
	return p.answered() + p.counts[idebench.OutcomeTimeout]
}

func (p *phaseStats) add(q *phaseStats) {
	p.wall += q.wall
	for i := range p.counts {
		p.counts[i] += q.counts[i]
	}
	p.latencies = append(p.latencies, q.latencies...)
	p.kinds = append(p.kinds, q.kinds...)
	p.outcomes = append(p.outcomes, q.outcomes...)
	p.cached += q.cached
	p.rows += q.rows
	if p.firstErr == "" {
		p.firstErr = q.firstErr
	}
}

// driver runs the closed loop of one phase.
type driver struct {
	sys   *system
	w     workload
	seed  int64
	phase int
	// keep receives every answered query; it must be safe for
	// concurrent use.
	keep func(a answer)
	// tracer, when set, sends trace:true and times each request's
	// layers.
	tracer *tracer
}

// run drives clients closed-loop sessions for d and returns the phase's
// accounting. Clients stop starting queries at the deadline; the queries
// in flight then finish and count.
func (dr *driver) run(d time.Duration) *phaseStats {
	per := make([]phaseStats, dr.w.clients)
	stop := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < dr.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dr.client(c, stop, &per[c])
		}(c)
	}
	wg.Wait()
	total := &phaseStats{}
	for i := range per {
		total.add(&per[i])
	}
	total.wall = time.Since(start)
	return total
}

func (dr *driver) client(c int, stop time.Time, st *phaseStats) {
	ctx := context.Background()
	cl := dr.sys.client(sessionSeed(dr.seed, dr.phase, c, -1))
	if dr.tracer != nil {
		cl.HTTP = dr.tracer.http
	}
	for i := 0; time.Now().Before(stop); i++ {
		ops := dr.session(c, i)
		sid, err := cl.CreateSession(ctx)
		if err != nil {
			// The analyst never got a session: every statement it would
			// have issued is lost, in the bucket the failure falls in.
			st.counts[idebench.Classify(nil, err, 0, deadline)] += int64(len(ops))
			if st.firstErr == "" {
				st.firstErr = fmt.Sprintf("create session: %v", err)
			}
			continue
		}
		for _, o := range ops {
			if !time.Now().Before(stop) {
				break
			}
			sql := o.sql
			req := server.QueryRequest{SQL: sql, Mode: dr.w.mode, TimeoutMS: dr.w.serverTimeout().Milliseconds()}
			var res *server.QueryResult
			var elapsed time.Duration
			if dr.tracer != nil {
				req.Trace = true
				res, elapsed, err = dr.tracer.query(ctx, cl, sid, req)
			} else {
				t0 := time.Now()
				res, err = cl.Query(ctx, sid, req)
				elapsed = time.Since(t0)
			}
			oc := idebench.Classify(res, err, elapsed, deadline)
			st.counts[oc]++
			if err != nil && oc != idebench.OutcomeTimeout && st.firstErr == "" {
				st.firstErr = fmt.Sprintf("%s: %v", sql, err)
			}
			st.latencies = append(st.latencies, elapsed)
			st.kinds = append(st.kinds, o.kind)
			st.outcomes = append(st.outcomes, oc)
			if oc.Answered() {
				if res.Cached {
					st.cached++
				}
				st.rows += int64(len(res.Rows))
				dr.keep(answer{sql: sql, outcome: oc, res: res})
			}
		}
		cl.EndSession(ctx, sid) // an unreachable server already shows in the query outcomes
	}
}

// session returns client c's session i. The clients of a pooled
// workload share one shuffle of the pool and take its sessions in turn.
func (dr *driver) session(c, i int) []op {
	if dr.w.pool == 0 {
		return dr.w.session(sessionSeed(dr.seed, dr.phase, c, i))
	}
	return dr.w.poolSession(sessionSeed(dr.seed, dr.phase, 0, -1), c+i*dr.w.clients)
}

// sqlHash orders statements for the oracle's sample: a seeded hash, so
// which statements are checked is fixed by the seed and unrelated to
// when they ran.
func sqlHash(seed int64, sql string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	h.Write([]byte(sql))
	return h.Sum64()
}

// sample keeps every answer to the k distinct statements with the
// smallest seeded hash (a bottom-k sketch): a uniform sample of the
// distinct statements whose memory stays bounded however many distinct
// wide answers the run returns.
type sample struct {
	seed int64
	k    int

	mu   sync.Mutex
	kept map[string]*keptStmt
}

type keptStmt struct {
	hash    uint64
	answers []answer
}

func newSample(seed int64, k int) *sample {
	return &sample{seed: seed, k: k, kept: map[string]*keptStmt{}}
}

func (s *sample) offer(a answer) {
	h := sqlHash(s.seed, a.sql)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ks, ok := s.kept[a.sql]; ok {
		ks.answers = append(ks.answers, a)
		return
	}
	if len(s.kept) >= s.k {
		maxSQL, maxHash := "", uint64(0)
		for sql, ks := range s.kept {
			if ks.hash >= maxHash {
				maxSQL, maxHash = sql, ks.hash
			}
		}
		if h >= maxHash {
			return
		}
		delete(s.kept, maxSQL)
	}
	s.kept[a.sql] = &keptStmt{hash: h, answers: []answer{a}}
}
