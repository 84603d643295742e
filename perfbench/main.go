// Command perfbench is the stable heap's end-to-end benchmark. It drives
// closed-loop workloads through the public API (stableheap.Heap and
// stableheap.Cluster), checks every result against its own ledger, and
// prints one JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (latency, throughput,
// recovery time, log volume, footprint, set-up time); with -trace 1 the
// run traces one round in four and reports per-layer
// metrics derived from spans around every public call and from deltas of
// the heap's Metrics() counters. See README.md for the workloads, the
// metric mapping and the known faults the workloads count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // parent of every heap directory the run creates
}

// workloadFunc runs one workload and returns what it measured.
type workloadFunc func(o options) (*report, error)

// workloads maps each workload name to its driver, in README order.
var workloads = map[string]workloadFunc{
	"bank-mem":     runBankMem,
	"oo7-churn":    runOO7,
	"recover-mem":  runRecoverMem,
	"bank-cluster": runBankCluster,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var o options
	var traceFlag int
	var selftest bool
	var repro string
	var attempts int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "heaps"), "directory that holds the heap directories")
	flag.BoolVar(&selftest, "selftest", false, "perturb each ledger and confirm that every check fails")
	flag.StringVar(&repro, "repro", "", "reproduce a known fault: nursery, redo or nursery-recover")
	flag.IntVar(&attempts, "attempts", 10, "attempts of -repro")
	flag.Parse()
	o.trace = traceFlag == 1

	if selftest {
		os.Exit(runSelfTest(o))
	}
	if repro != "" {
		os.Exit(runRepro(o, repro, attempts))
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// One processor: with two on a host of two shared vCPUs, the client
	// and the Go collector's workers interleave as far as other tenants'
	// load allows, and rates and tails moved by 8-37% between runs of the
	// same code; with one they moved by 3-7%. -repro keeps the default,
	// since one fault needs parallel redo.
	runtime.GOMAXPROCS(1)
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runDir, err := os.MkdirTemp(o.dir, o.workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.dir = runDir
	rep, err := fn(o)
	os.RemoveAll(runDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	for _, e := range rep.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", o.workload, e)
	}
	for _, e := range rep.opErrs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, e)
	}
	var ms map[string]metric
	if o.trace {
		ms = perLayerMetrics(rep)
	} else {
		ms = endToEndMetrics(rep)
	}
	printResult(o.workload, rep, ms)
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult prints every metric by name and unit, then the JSON line.
func printResult(name string, rep *report, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v, measured %.2fs\n",
		name, rep.attempted, rep.failed, len(rep.checkErrs) == 0, rep.elapsed.Seconds())
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   len(rep.checkErrs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// deadline returns the end of a measured window starting now.
func deadline(o options) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}
