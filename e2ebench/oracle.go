package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/server"
	"dex/internal/sqlparse"
	"dex/internal/storage"
)

// oracleStatements is how many distinct statements a run checks against
// the sequential generic evaluator. The generic path boxes every row, so
// one statement over the 2M-row table costs 50-400 ms; checking every
// distinct statement of a run would take minutes.
const oracleStatements = 16

// floatTol is the relative difference allowed between a float SUM or AVG
// and the oracle's: the kernels and the fleet add in a different order
// than the sequential evaluator, which moves the last few ulps.
const floatTol = 1e-9

// oracleReport says what the correctness check covered and found.
type oracleReport struct {
	statements int // distinct statements run through the generic oracle
	answers    int // answers compared against it
	wrong      int // answers that did not match
	first      string
}

func (r *oracleReport) mismatch(format string, args ...any) {
	r.wrong++
	if r.first == "" {
		r.first = fmt.Sprintf(format, args...)
	}
}

// checkSample runs every sampled statement through the sequential generic
// exec.Execute on a freshly generated unencoded table, two statements at a time, and
// compares what the clients were answered. Exact answers must match;
// estimates (online mode, degraded answers) are not compared here, but
// the in-process exact result that scores their quality is. An answer
// that fails the check moves from its outcome to outcomeWrong in st.
func checkSample(sys *system, smp *sample, st *phaseStats) (oracleReport, error) {
	plain, err := generateSales()
	if err != nil {
		return oracleReport{}, err
	}
	stmts := make([]*keptStmt, 0, len(smp.kept))
	sqls := make([]string, 0, len(smp.kept))
	for sql, ks := range smp.kept {
		stmts = append(stmts, ks)
		sqls = append(sqls, sql)
	}
	oracle := make([]*storage.Table, len(sqls))
	errs := make([]error, len(sqls))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				oracle[i], errs[i] = genericOracle(plain, sqls[i])
			}
		}()
	}
	for i := range sqls {
		next <- i
	}
	close(next)
	wg.Wait()

	var rep oracleReport
	for i, ks := range stmts {
		if errs[i] != nil {
			return rep, fmt.Errorf("oracle %q: %w", sqls[i], errs[i])
		}
		rep.statements++
		want := oracle[i]
		// The exact answer that scores an estimate must itself be right.
		var exactOK *bool
		for _, a := range ks.answers {
			rep.answers++
			if a.res.Degraded || a.res.Mode == "online" || a.res.Mode == "approx" {
				if exactOK == nil {
					got, err := exactAnswer(sys, sqls[i])
					if err != nil {
						return rep, err
					}
					ok := sameTable(got.Columns, got.Rows, want, sqls[i]) == ""
					exactOK = &ok
				}
				if !*exactOK {
					rep.mismatch("%s: in-process exact result differs from the generic oracle", sqls[i])
					st.counts[a.outcome]--
					st.counts[outcomeWrong]++
				}
				continue
			}
			if diff := sameTable(a.res.Columns, a.res.Rows, want, sqls[i]); diff != "" {
				rep.mismatch("%s: %s", sqls[i], diff)
				st.counts[a.outcome]--
				st.counts[outcomeWrong]++
			}
		}
	}
	return rep, nil
}

// genericOracle answers sql with the sequential generic evaluator.
func genericOracle(plain *storage.Table, sql string) (*storage.Table, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return exec.Execute(plain, sqlparse.ExpandStar(stmt.Query, plain.Schema()))
}

// exactAnswer runs sql in exact mode on the system's engine, in process
// and without a deadline, and renders it the way the wire does.
func exactAnswer(sys *system, sql string) (*server.QueryResult, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	t, err := sys.eng.ExecuteContext(context.Background(), stmt.Table, stmt.Query, core.Exact)
	if err != nil {
		return nil, fmt.Errorf("exact %q: %w", sql, err)
	}
	cols, rows := wireRows(t)
	return &server.QueryResult{Columns: cols, Rows: rows, Mode: "exact"}, nil
}

// wireRows renders a table as the Go client decodes it: numbers as
// float64, NaN and ±Inf as null.
func wireRows(t *storage.Table) ([]string, [][]any) {
	schema := t.Schema()
	cols := make([]string, len(schema))
	for i, f := range schema {
		cols[i] = f.Name
	}
	rows := make([][]any, t.NumRows())
	for r := range rows {
		row := make([]any, t.NumCols())
		for c := range row {
			v := t.Column(c).Value(r)
			switch v.Typ {
			case storage.TInt:
				row[c] = float64(v.I)
			case storage.TFloat:
				if math.IsNaN(v.F) || math.IsInf(v.F, 0) {
					row[c] = nil
				} else {
					row[c] = v.F
				}
			default:
				row[c] = v.S
			}
		}
		rows[r] = row
	}
	return cols, rows
}

// sameTable compares a decoded answer with the oracle's table and
// returns "" when they match, else what differs. Rows are compared as a
// multiset: the fleet concatenates shards in its own order. In an
// aggregate answer, rows are matched on their non-aggregate cells and
// aggregate cells may differ by floatTol.
func sameTable(cols []string, rows [][]any, want *storage.Table, sql string) string {
	wcols, wrows := wireRows(want)
	if strings.Join(cols, ",") != strings.Join(wcols, ",") {
		return fmt.Sprintf("columns %v, want %v", cols, wcols)
	}
	if len(rows) != len(wrows) {
		return fmt.Sprintf("%d rows, want %d", len(rows), len(wrows))
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return err.Error()
	}
	agg := make([]bool, len(cols))
	for i, it := range sqlparse.ExpandStar(stmt.Query, want.Schema()).Select {
		if i < len(agg) {
			agg[i] = it.Agg != exec.AggNone
		}
	}
	key := func(row []any, aggCells bool) string {
		var b strings.Builder
		for i, v := range row {
			if i < len(agg) && agg[i] != aggCells {
				continue
			}
			b.WriteString(cellString(v))
			b.WriteByte('|')
		}
		return b.String()
	}
	index := func(rs [][]any) ([]string, map[string][][]any) {
		keys := make([]string, 0, len(rs))
		by := map[string][][]any{}
		for _, r := range rs {
			k := key(r, false)
			if _, ok := by[k]; !ok {
				keys = append(keys, k)
			}
			by[k] = append(by[k], r)
		}
		sort.Strings(keys)
		return keys, by
	}
	gk, got := index(rows)
	wk, wnt := index(wrows)
	if strings.Join(gk, "\n") != strings.Join(wk, "\n") {
		return "rows differ"
	}
	for _, k := range wk {
		g, w := got[k], wnt[k]
		if len(g) != len(w) {
			return fmt.Sprintf("row %q appears %d times, want %d", k, len(g), len(w))
		}
		if len(w) != 1 {
			continue // duplicate projection rows carry no aggregate cells
		}
		for i := range w[0] {
			if i < len(agg) && agg[i] && !closeCells(g[0][i], w[0][i]) {
				return fmt.Sprintf("row %q column %s = %v, want %v", k, cols[i], g[0][i], w[0][i])
			}
		}
	}
	return ""
}

func cellString(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return strconv.Quote(x)
	default:
		return fmt.Sprintf("%T(%v)", v, v)
	}
}

func closeCells(got, want any) bool {
	g, gok := got.(float64)
	w, wok := want.(float64)
	if !gok || !wok {
		return got == want
	}
	if g == w {
		return true
	}
	return math.Abs(g-w) <= floatTol*math.Max(math.Abs(g), math.Abs(w))
}

// scoreQuality returns the mean relative error of the answers users
// saw, late ones included (explore-online answers most of its queries
// after the deadline): exact answers score 0; estimates (online mode,
// degraded answers) score the per-group capped relative error against
// the in-process exact result, the rule idebench's quality-at-deadline
// uses. Answers the oracle rejected are failures, not answers, and are
// left out.
func scoreQuality(sys *system, st *phaseStats, estimates []answer) (float64, error) {
	answered := st.answered()
	if answered == 0 {
		return 0, nil
	}
	exact := map[string]map[string]float64{}
	var sum float64
	for _, a := range estimates {
		want, ok := exact[a.sql]
		if !ok {
			res, err := exactAnswer(sys, a.sql)
			if err != nil {
				return 0, err
			}
			want = groupValues(res)
			exact[a.sql] = want
		}
		sum += relErr(groupValues(a.res), want)
	}
	return sum / float64(answered), nil
}

// groupValues extracts the aggregate value per group ("" for a scalar
// answer). Estimates carry a ci95 column right after the aggregate, so
// the value is the column before it; exact answers put it last. Null
// cells are skipped.
func groupValues(res *server.QueryResult) map[string]float64 {
	valCol := len(res.Columns) - 1
	for i, c := range res.Columns {
		if c == "ci95" && i > 0 {
			valCol = i - 1
			break
		}
	}
	out := map[string]float64{}
	for _, row := range res.Rows {
		if valCol < 0 || valCol >= len(row) {
			continue
		}
		v, ok := row[valCol].(float64)
		if !ok {
			continue
		}
		key := ""
		if valCol > 0 {
			key = cellString(row[0])
		}
		out[key] = v
	}
	return out
}

// relErr is |est−exact| / max(|exact|, 1e-9) per exact group, capped at 1
// (a missing group counts as 1), averaged over the exact groups.
func relErr(est, exact map[string]float64) float64 {
	if len(exact) == 0 {
		return 0
	}
	var sum float64
	for key, ev := range exact {
		av, ok := est[key]
		if !ok {
			sum++
			continue
		}
		e := math.Abs(av-ev) / math.Max(math.Abs(ev), 1e-9)
		sum += math.Min(e, 1)
	}
	return sum / float64(len(exact))
}
