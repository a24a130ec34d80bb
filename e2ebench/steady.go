package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// steadyFile keeps the medians of the last steadiness run, so the next
// one can say whether the medians moved by more than their bounds.
const steadyFile = ".e2ebench-build/steady.json"

// benchmarkSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs each workload of BENCHMARK.json (or only the named one)
// n times, each in its own process with seeds seed, seed+1, ..., and
// prints every end-to-end metric's median, quartiles and spread, the
// distance between the quartiles as a share of the median, against the
// metric's bound. When an earlier steadiness run left its medians
// behind, it also prints how far each median moved and flags a move for
// the worse beyond the bound. It returns the process exit code: 1 when a
// run failed or a figure is out of bounds. The figures a run prints but
// BENCHMARK.json does not gate are summarised after the gated ones, so
// --steady 1 runs every workload once and shows every figure.
func runSteady(n int, seed int64, seconds int, only string) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	prev := map[string]map[string]float64{}
	if b, err := os.ReadFile(steadyFile); err == nil {
		json.Unmarshal(b, &prev) // an unreadable record only loses the comparison
	}
	// Workloads this run skips keep their earlier medians.
	medians := map[string]map[string]float64{}
	for w, ms := range prev {
		medians[w] = ms
	}
	code := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		// Every figure a run prints, gated or not, for the summary.
		printed, units := map[string][]float64{}, map[string]string{}
		for i := 0; i < n; i++ {
			seed := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if err != nil || perr != nil || !res.Correct || res.Failed > 0 {
				fmt.Printf("%s seed %d: run failed (exit: %v, result: %v, failed ops: %d)\n", w.Name, seed, err, perr, res.Failed)
				code = 1
				continue
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			for _, line := range strings.Split(string(out), "\n") {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != "metric" {
					continue
				}
				if v, err := strconv.ParseFloat(f[2], 64); err == nil {
					printed[f[1]] = append(printed[f[1]], v)
					units[f[1]] = f[3]
				}
			}
		}
		medians[w.Name] = map[string]float64{}
		for _, m := range spec.EndToEnd {
			vs := values[m.Name]
			delete(printed, m.Name)
			if len(vs) < 2 {
				fmt.Printf("%-15s %-18s values %.6g %s\n", w.Name, m.Name, vs, m.Unit)
				if len(vs) == 0 {
					code = 1
				}
				continue
			}
			q1, med, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			medians[w.Name][m.Name] = med
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
				code = 1
			case spread > m.Bound/3:
				verdict = "over bound/3"
			}
			fmt.Printf("%-15s %-18s median %12.6g %-5s q1 %12.6g q3 %12.6g spread %6.2f%% bound %5.1f%% %s; values %.4g",
				w.Name, m.Name, med, m.Unit, q1, q3, 100*spread, 100*m.Bound, verdict, vs)
			if old, ok := prev[w.Name][m.Name]; ok && old != 0 {
				worse := (med - old) / old
				if m.Better == "higher" {
					worse = -worse
				}
				fmt.Printf("; vs previous median %.6g: %+.2f%% worse", old, 100*worse)
				if worse > m.Bound {
					fmt.Print(" OVER BOUND")
					code = 1
				}
			}
			fmt.Println()
		}
		names := make([]string, 0, len(printed))
		for name := range printed {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if vs := printed[name]; len(vs) < 2 {
				fmt.Printf("%-15s %-18s values %.6g %s (not gated)\n", w.Name, name, vs, units[name])
			} else {
				q1, med, q3 := quartiles(vs)
				fmt.Printf("%-15s %-18s median %12.6g %-5s q1 %12.6g q3 %12.6g (not gated)\n", w.Name, name, med, units[name], q1, q3)
			}
		}
	}
	if b, err := json.MarshalIndent(medians, "", "  "); err == nil {
		if err := os.MkdirAll(filepath.Dir(steadyFile), 0o755); err == nil {
			os.WriteFile(steadyFile, b, 0o644) // losing the record only loses the next comparison
		}
	}
	return code
}

// lastResult parses the result line a run prints last.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if len(lines) == 0 {
		return res, fmt.Errorf("no output")
	}
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// default exclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
