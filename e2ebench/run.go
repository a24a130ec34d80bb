package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"dex/internal/idebench"
)

// collector receives the answers of a run: all of them go to the
// oracle's sample, and the estimates users saw, late ones included, are
// kept whole for quality scoring (they are a few rows each).
type collector struct {
	smp *sample

	mu        sync.Mutex
	estimates []answer
}

func newCollector(seed int64) *collector {
	return &collector{smp: newSample(seed, oracleStatements)}
}

func (c *collector) keep(a answer) {
	c.smp.offer(a)
	if !isEstimate(a) {
		return
	}
	c.mu.Lock()
	c.estimates = append(c.estimates, a)
	c.mu.Unlock()
}

func isEstimate(a answer) bool {
	return a.res.Degraded || a.res.Mode == "online" || a.res.Mode == "approx"
}

// runTimed is the untraced run: set up, time the closed loop, check the
// answers, and report the end-to-end metrics.
func runTimed(w workload, seed int64, d time.Duration) (result, error) {
	sys, setup, phases, err := setUp(w, seed)
	if err != nil {
		return result{}, err
	}
	defer sys.close()
	col := newCollector(seed)
	dr := &driver{sys: sys, w: w, seed: seed, phase: phaseTimed, keep: col.keep}
	st := dr.run(d)
	rep, err := checkSample(sys, col.smp, st)
	if err != nil {
		return result{}, err
	}
	quality, err := scoreQuality(sys, st, col.estimates)
	if err != nil {
		return result{}, err
	}
	printAccounting(w, st, rep)
	fmt.Printf("setup median of %d: generate %.3fs register %.3fs fleet %.3fs serve %.3fs warm-up %.3fs\n",
		setupReps, phases.generate.Seconds(), phases.register.Seconds(), phases.fleet.Seconds(),
		phases.serve.Seconds(), phases.warm.Seconds())

	all := endToEnd(w, st, quality, setup)
	printMetrics(all)
	res := result{
		Correct:   rep.wrong == 0,
		Attempted: st.attempted(),
		Failed:    failed(st),
		Metrics:   map[string]metric{},
	}
	for _, name := range endToEndMetrics {
		res.Metrics[name] = all[name]
	}
	return res, nil
}

// endToEndMetrics are the metrics the last line of an untraced run
// carries, in BENCHMARK.json order.
var endToEndMetrics = []string{"throughput_qps", "latency_p99_ms", "answer_accuracy", "setup_s"}

// endToEnd computes every end-to-end figure of a phase. Latency covers
// every issued query, whatever its outcome: a timed-out query kept the
// analyst waiting too. Latency and throughput are taken at the
// workload's nominal mix (see mixStats). throughput_qps counts answered
// queries only: the closed loop completes clients ÷ mean round trip
// queries per second (Little's law), and only the answered share of them
// counts, so a query cut at the deadline with a 504 costs a client its
// round trip and adds nothing. answered_qps is the plain count of
// answered queries over the wall time, and measured_qps the same for
// every completed query, 504s included.
func endToEnd(w workload, st *phaseStats, quality float64, setup time.Duration) map[string]metric {
	att := float64(st.attempted())
	ontime := float64(st.counts[idebench.OutcomeOK] + st.counts[idebench.OutcomeDegraded])
	ms := newMixStats(w.mix, st)
	return map[string]metric{
		"throughput_qps":     {float64(w.clients) / ms.mean() * ms.answeredShare(), "1/s"},
		"latency_p50_ms":     {1e3 * ms.quantile(0.5), "ms"},
		"latency_p99_ms":     {1e3 * ms.quantile(ms.highQ), "ms"},
		"measured_qps":       {float64(st.completed()) / st.wall.Seconds(), "1/s"},
		"answered_qps":       {float64(st.answered()) / st.wall.Seconds(), "1/s"},
		"deadline_miss_rate": {(att - ontime) / att, "ratio"},
		"error_rate":         {float64(errorCount(st)) / att, "ratio"},
		"quality_rel_err":    {quality, "ratio"},
		"answer_accuracy":    {1 - quality, "ratio"},
		"setup_s":            {setup.Seconds(), "s"},
	}
}

// mixStats estimates round-trip statistics at a workload's nominal
// operation mix. A session stream's kinds vary from seed to seed, and on
// the fleet and online workloads one kind costs ten times another, so a
// run of a few dozen sessions sees a different mix each time. Every
// sample is weighted by its kind's nominal share over its observed share
// (post-stratification); the estimates then describe the nominal mix.
type mixStats struct {
	secs     []float64 // round trips in seconds, ascending
	weights  []float64 // each sample's weight, summing to 1
	answered []bool    // whether each sample's query was answered
	// highQ is the highest quantile up to 0.99 with at least ten
	// samples beyond it.
	highQ float64
}

func newMixStats(mix []kindShare, st *phaseStats) mixStats {
	n := len(st.latencies)
	count := make([]float64, len(mix))
	for _, k := range st.kinds {
		count[k]++
	}
	// Kinds the run never issued are left out and the rest renormalised.
	var present float64
	for k, c := range count {
		if c > 0 {
			present += mix[k].share
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return st.latencies[idx[a]] < st.latencies[idx[b]] })
	ms := mixStats{secs: make([]float64, n), weights: make([]float64, n), answered: make([]bool, n)}
	for j, i := range idx {
		k := st.kinds[i]
		ms.secs[j] = st.latencies[i].Seconds()
		ms.weights[j] = mix[k].share / present / count[k]
		ms.answered[j] = st.outcomes[i].Answered()
	}
	// quantile(q) returns the first sample at which the cumulative
	// weight reaches q, so ten samples lie beyond it when q is at most
	// the weight of all samples but the ten slowest. A kind the run
	// under-sampled weighs more than 1/n per sample, so this is read
	// from the weights, not the count.
	var below float64
	for j := 0; j < n-10; j++ {
		below += ms.weights[j]
	}
	ms.highQ = math.Min(0.99, below)
	return ms
}

// quantile returns the smallest round trip at which the cumulative
// weight reaches q.
func (ms mixStats) quantile(q float64) float64 {
	var cum float64
	for i, w := range ms.weights {
		cum += w
		if cum >= q-1e-12 {
			return ms.secs[i]
		}
	}
	if n := len(ms.secs); n > 0 {
		return ms.secs[n-1]
	}
	return 0
}

// answeredShare returns the weighted share of samples that were
// answered.
func (ms mixStats) answeredShare() float64 {
	var a float64
	for i, w := range ms.weights {
		if ms.answered[i] {
			a += w
		}
	}
	return a
}

// mean returns the weighted mean round trip in seconds.
func (ms mixStats) mean() float64 {
	var m float64
	for i, w := range ms.weights {
		m += w * ms.secs[i]
	}
	return m
}

// errorCount counts the answers that went wrong for a reason other than the
// deadline: server and transport failures, unclassified errors and
// answers the oracle rejected.
func errorCount(st *phaseStats) int64 {
	return st.counts[idebench.OutcomeFailed] + st.counts[idebench.OutcomeTransport] +
		st.counts[idebench.OutcomeUnclassified] + st.counts[outcomeWrong]
}

// failed is the result line's failed count: errors plus load-shed
// rejections. A timed-out query is a missed deadline, not a failure.
func failed(st *phaseStats) int64 {
	return errorCount(st) + st.counts[idebench.OutcomeRejected]
}

func printAccounting(w workload, st *phaseStats, rep oracleReport) {
	var b strings.Builder
	fmt.Fprintf(&b, "ops attempted=%d", st.attempted())
	for o := 0; o < numOutcomes; o++ {
		fmt.Fprintf(&b, " %s=%d", outcomeName(idebench.Outcome(o)), st.counts[o])
	}
	fmt.Fprintf(&b, " cached=%d rows_per_answer=%.1f wall=%.3fs",
		st.cached, float64(st.rows)/math.Max(float64(st.answered()), 1), st.wall.Seconds())
	fmt.Println(b.String())
	if st.firstErr != "" {
		fmt.Printf("first error: %s\n", st.firstErr)
	}
	fmt.Printf("latency samples=%d high_percentile=p%.1f\n", len(st.latencies), 100*newMixStats(w.mix, st).highQ)
	n := make([]int, len(w.mix))
	answered := make([]int, len(w.mix))
	sum := make([]time.Duration, len(w.mix))
	for i, k := range st.kinds {
		n[k]++
		sum[k] += st.latencies[i]
		if st.outcomes[i].Answered() {
			answered[k]++
		}
	}
	for k, ks := range w.mix {
		if n[k] > 0 {
			fmt.Printf("kind %s share=%.3f nominal=%.3f mean=%.2fms answered=%.3f\n", ks.name,
				float64(n[k])/float64(len(st.kinds)), ks.share, float64(sum[k]/time.Duration(n[k]))/1e6,
				float64(answered[k])/float64(n[k]))
		}
	}
	fmt.Printf("oracle statements=%d answers=%d wrong=%d\n", rep.statements, rep.answers, rep.wrong)
	if rep.first != "" {
		fmt.Printf("oracle first mismatch: %s\n", rep.first)
	}
}

func printMetrics(all map[string]metric) {
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s %.6g %s\n", n, all[n].Value, all[n].Unit)
	}
}

// perLayerMetrics are the metrics the last line of a traced run carries,
// in BENCHMARK.json order: every layer timing as a p50, a p99 and its
// share of the client-observed time, then the layers' counts and ratios.
// A layer the workload does not touch reads 0.
func perLayerMetrics() []string {
	var out []string
	for _, t := range []string{
		"client.ttfb_ms", "client.body_ms", "client.decode_ms",
		"server.engine_ms", "server.wire_ms", "server.marshal_ms", "server.admission_wait_ms",
		"sqlparse.parse_us", "core.exact_ms", "onlineagg.online_ms", "shard.execute_ms", "shard.tax_ms",
	} {
		out = append(out, t+".p50", t+".p99", t+".share")
	}
	return append(out,
		"client.response_bytes.p50", "client.response_bytes.p99",
		"cache.hit_rate", "cache.evictions",
		"exec.rows_scanned", "exec.zone_skipped", "exec.agg_kernel_hit_rate",
		"onlineagg.batches", "shard.rpcs_per_query",
		"setup.generate_s", "setup.register_s", "setup.fleet_s",
		"trace.overhead")
}
