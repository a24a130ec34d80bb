// Command e2ebench is dex's standing end-to-end benchmark. It builds an
// in-process dexd the way idebench.StartLocal does (dexd engine defaults,
// a 2M-row sales table), serves it on a loopback port, and drives it with
// a closed-loop client (see workloads.go) through server.Client: the
// client sends its next query only when the previous answer has arrived,
// with zero think time and a 250 ms deadline on every query, the way an
// analyst waits for each answer before choosing the next drill or pan.
// The deadline goes to the server as timeout_ms, except on
// explore-online, which judges it at the client (see workloads.go).
//
// One run measures one workload and prints, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics:
//
//	bash e2ebench/run.sh --workload explore-exact --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// measured at the client. With --trace 1 the run splits the client's wait
// into layers instead (see traced.go) and reports the per-layer metrics.
// --steady N runs every workload N times with distinct seeds and prints
// each end-to-end metric's median, quartiles and spread against its bound
// (see steady.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// The fixed shape of every run. At most two clients, the two cores the
// benchmark host has; the table size and deadline are the ones the
// interactive-exploration workloads are defined against.
const (
	tableRows  = 2_000_000
	tableSeed  = 1
	maxClients = 2
	deadline   = 250 * time.Millisecond
	// setupReps is how many times a run builds the system; setup_s is
	// the median build plus the warm-up of the last build, the one
	// measured.
	setupReps = 3
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wlName := flag.String("workload", "", "workload to run: explore-exact, detail-rows, explore-online or explore-fleet")
	seed := flag.Int64("seed", 1, "workload seed; the same seed issues the same queries")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	steady := flag.Int("steady", 0, "run each workload (or only --workload) this many times, with seeds --seed, --seed+1, ..., and report spreads")
	spans := flag.String("spans", ".e2ebench-build/spans", "directory the traced run writes its spans to")
	flag.Parse()

	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if *steady > 0 {
		os.Exit(runSteady(*steady, *seed, *seconds, *wlName))
	}
	w, ok := lookupWorkload(*wlName)
	if !ok {
		fatalf("unknown --workload %q", *wlName)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	traced := *traceFlag == 1
	printProvenance(w, *seed, *seconds, traced)

	run := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if traced {
		res, err = runTraced(w, *seed, run, *spans)
	} else {
		res, err = runTimed(w, *seed, run)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printProvenance records what the numbers were measured on: the commit
// (when the binary was built inside a git checkout), Go version,
// scheduler width, host cores, date and the run's parameters.
func printProvenance(w workload, seed int64, seconds int, traced bool) {
	commit, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	prov := map[string]any{
		"commit":      commit,
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"date":        time.Now().UTC().Format(time.RFC3339),
		"workload":    w.name,
		"seed":        seed,
		"table_rows":  tableRows,
		"clients":     w.clients,
		"deadline_ms": deadline.Milliseconds(),
		"timeout_ms":  w.serverTimeout().Milliseconds(),
		"seconds":     seconds,
		"traced":      traced,
	}
	b, _ := json.Marshal(prov) // a map of plain values always encodes
	fmt.Printf("provenance %s\n", b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}
