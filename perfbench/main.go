// Command perfbench is the repository benchmark. It drives the public
// fpbtree API (and, in its traced mode, each layer's public functions)
// through one of four closed-loop workloads, checks every result, and
// prints its metrics by name with units. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload lookup|oltp|durable|reproduce --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the same workload and seed with spans around every facade call,
// times each layer's public functions in isolation, and reports the
// per-layer metrics plus an attribution table. The JSON result holds
// the same metrics on every workload, those BENCHMARK.json lists;
// figures only some workloads have (per-kind latencies, recovery time,
// write and space amplification, per-commit WAL counts, per-experiment
// times) are printed above it as indented details. Every loop is closed:
// each client issues its next call only when the previous one returned,
// as the callers of an embedded index do.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files and the durable store
	commit   string
	sz       sizes
	// mutate plants a deliberately wrong expectation (the self-test
	// uses it to prove that the checks can fail).
	mutate bool
}

// sizes are the workload dimensions; the self-test shrinks them.
type sizes struct {
	lookupKeys, oltpKeys, durableKeys int
	probeKeys                         int // the traced run's unit-cost probe
	setups                            int // set-ups per run; setup_s is their median
	warmupOps                         int // per client, dropped before the clock starts
	durablePool                       int // buffer frames behind the durable store
	suiteIDs                          []string
}

var fullSizes = sizes{
	lookupKeys:  8_000_000,
	oltpKeys:    4_000_000,
	durableKeys: 2_000_000,
	probeKeys:   2_000_000,
	setups:      3,
	warmupOps:   200_000,
	durablePool: 256,
	suiteIDs: []string{"table2", "fig3b", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation"},
}

// workloadClients is each workload's client count; a run refuses to
// report when it exceeds GOMAXPROCS rather than publish a number
// measured on fewer cores than clients.
var workloadClients = map[string]int{"lookup": 2, "oltp": 2, "durable": 1, "reproduce": 1}

// metric is one reported value. n is the sample count behind a
// percentile (0 for other metrics). A detail is printed with the
// metrics but left out of the JSON result: the result holds the same
// metrics on every workload (those BENCHMARK.json lists), and a detail
// is a figure only some workloads have.
type metric struct {
	name, unit string
	value      float64
	n          uint64
	detail     bool
}

// report is a workload's outcome.
type report struct {
	attempted, failed uint64
	metrics           []metric
	lines             []string // extra human-readable output (tables, notes)
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) addN(name, unit string, v float64, n uint64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n})
}

// detail adds a printed-only figure.
func (r *report) detail(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, detail: true})
}

func (r *report) detailN(name, unit string, v float64, n uint64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n, detail: true})
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts one verified outcome.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "lookup, oltp, durable or reproduce")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span files and temporary stores")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit to stamp on the result")
	writeRef := flag.Bool("write-reference", false, "regenerate the reproduce workload's reference tables and exit")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.sz = fullSizes

	if *writeRef {
		if err := writeReference(cfg.sz.suiteIDs); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	emit(os.Stdout, cfg, rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run validates the invocation, stamps it and runs the workload.
func run(cfg config) (report, error) {
	clients, ok := workloadClients[cfg.workload]
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q (lookup, oltp, durable, reproduce)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return report{}, fmt.Errorf("--seconds must be positive")
	}
	if procs := runtime.GOMAXPROCS(0); clients > procs {
		return report{}, fmt.Errorf("workload %s runs %d clients but GOMAXPROCS is %d; refusing to report a degraded number",
			cfg.workload, clients, procs)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return report{}, err
	}
	fmt.Println("# stamp " + stamp(cfg))
	switch cfg.workload {
	case "lookup":
		return runLookup(cfg)
	case "oltp":
		return runOLTP(cfg)
	case "durable":
		return runDurable(cfg)
	default:
		return runReproduce(cfg)
	}
}

// stamp identifies the build and host a result was measured on.
func stamp(cfg config) string {
	goamd64 := "v1"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"commit":     cfg.commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goamd64":    goamd64,
		"go":         runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"flush":      "WithStoreNoFsync (fsyncs counted, physical fsync elided)",
	})
	return string(b)
}

// emit prints the human-readable metric lines, then the JSON result as
// the last line.
func emit(w *os.File, cfg config, rep report) {
	for _, l := range rep.lines {
		fmt.Fprintln(w, l)
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-40s %14.6g %-6s (failed %d of %d attempted)\n", "failed_frac", failedFrac, "frac", rep.failed, rep.attempted)
	metrics := map[string]any{}
	for _, m := range rep.metrics {
		name := m.name
		if m.detail {
			name = "  " + name
		}
		if m.n > 0 {
			fmt.Fprintf(w, "%-40s %14.6g %-6s (n=%d)\n", name, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "%-40s %14.6g %s\n", name, m.value, m.unit)
		}
		if m.detail {
			continue
		}
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	attempted := rep.attempted
	if attempted == 0 {
		attempted = 1
	}
	b, _ := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(w, string(b))
}

// median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// cpuSeconds is the process's user plus system CPU time. Set-up and
// the serial simulation suite are timed with it rather than the wall
// clock: on a virtual machine whose kernel accounts steal time
// (CONFIG_PARAVIRT_TIME_ACCOUNTING), it leaves out the time the host
// kept the virtual CPU descheduled, which moves wall time by half
// within minutes on a shared host while the work stays the same.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// heapMB reports the live Go heap after a collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// freshDir returns an empty directory under cfg.out.
func freshDir(cfg config, name string) (string, error) {
	dir := filepath.Join(cfg.out, "tmp", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// table renders rows as aligned text lines.
func table(rows [][]string) []string {
	var widths []int
	for _, r := range rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := make([]string, len(rows))
	for j, r := range rows {
		parts := make([]string, len(r))
		for i, c := range r {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		out[j] = "  " + strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	return out
}
