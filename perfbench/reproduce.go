package main

import (
	"bytes"
	"embed"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

// The reproduce workload: the paper's quick-scale experiment suite,
// table2 through ablation, run serially in simulation mode. It is the
// only workload that runs the bptree, micro-index and cache-first
// variants and the memsim, disksim, jparray and db2sim layers. Every
// experiment's tables must match, byte for byte, the reference tables
// in testdata/quick (regenerate them with --write-reference, run from
// this directory, only when a change means to alter the simulation).

//go:embed testdata/quick/*.txt
var referenceFS embed.FS

const referenceDir = "testdata/quick"

// warmupIDs are the cheap experiments the set-up runs once.
var warmupIDs = []string{"table2", "fig3b", "fig10", "fig11"}

func quickParams() (harness.Params, error) {
	p, err := harness.ParamsFor("quick")
	p.Workers = 1
	return p, err
}

// render prints an experiment's tables as the reference files hold
// them.
func render(tables []*harness.Table) []byte {
	var b bytes.Buffer
	for _, t := range tables {
		t.Fprint(&b)
	}
	return b.Bytes()
}

func writeReference(ids []string) error {
	p, err := quickParams()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(referenceDir, 0o755); err != nil {
		return err
	}
	for _, id := range ids {
		tables, err := harness.Run(id, p)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := os.WriteFile(filepath.Join(referenceDir, id+".txt"), render(tables), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func loadReference(ids []string) (map[string][]byte, error) {
	refs := make(map[string][]byte, len(ids))
	for _, id := range ids {
		b, err := referenceFS.ReadFile(referenceDir + "/" + id + ".txt")
		if err != nil {
			return nil, fmt.Errorf("reference table for %s: %w", id, err)
		}
		refs[id] = b
	}
	return refs, nil
}

// suite runs every experiment, checking each run against its
// reference, and returns each experiment's fastest run in CPU seconds.
// An experiment runs at least minRuns times and again while its runs
// add up to less than budget CPU seconds. With ob set, the substrate
// counters register with it and the trailing metrics table Run appends
// is left out of the comparison.
func suite(rep *report, p harness.Params, ids []string, refs map[string][]byte, ob *obs.Obs, traced bool, minRuns int, budget float64) (map[string]float64, error) {
	p.Obs = ob
	secs := make(map[string]float64, len(ids))
	var l *spanLog
	if traced {
		l = spanLogFor(0)
	}
	for _, id := range ids {
		best, spent := math.Inf(1), 0.0
		for runs := 0; runs < minRuns || spent < budget; runs++ {
			// Process CPU time includes the collector's; collecting first
			// charges each run for its own garbage, not its predecessor's.
			runtime.GC()
			t0, c0 := now(), cpuSeconds()
			tables, err := harness.Run(id, p)
			t1, c1 := now(), cpuSeconds()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			if l != nil {
				l.add(spanName("harness."+id), t0, t1)
			}
			best = min(best, c1-c0)
			spent += c1 - c0
			if ob != nil {
				tables = tables[:len(tables)-1]
			}
			got := render(tables)
			ok := bytes.Equal(got, refs[id])
			rep.check(ok)
			if !ok && len(rep.lines) < 20 {
				rep.note("# %s differs from its reference table", id)
			}
		}
		secs[id] = best
	}
	if l != nil {
		l.closePhase()
	}
	return secs, nil
}

func runReproduce(cfg config) (report, error) {
	var rep report
	ids := cfg.sz.suiteIDs
	var refs map[string][]byte
	var p harness.Params
	var setups []float64
	for s := 0; s < cfg.sz.setups; s++ {
		c0 := cpuSeconds()
		var err error
		if refs, err = loadReference(append(append([]string(nil), warmupIDs...), ids...)); err != nil {
			return rep, err
		}
		if cfg.mutate {
			refs[ids[len(ids)-1]] = append([]byte("mutated "), refs[ids[len(ids)-1]]...)
		}
		if p, err = quickParams(); err != nil {
			return rep, err
		}
		if _, err := suite(&rep, p, warmupIDs, refs, nil, false, 1, 0); err != nil {
			return rep, err
		}
		setups = append(setups, cpuSeconds()-c0)
	}

	// One pass over the suite fills the measured time: every experiment
	// runs at least twice, and again while its runs add up to less than
	// a third of an even share of the time, so short experiments run many
	// times. The work is serial and deterministic and interference only
	// adds time, so each experiment counts with its fastest run in CPU
	// seconds, and run_s is their sum.
	start := time.Now()
	best, err := suite(&rep, p, ids, refs, nil, false, 2, cfg.seconds/float64(3*len(ids)))
	if err != nil {
		return rep, err
	}
	wall := time.Since(start).Seconds()
	runS := 0.0
	for _, s := range best {
		runS += s
	}
	rep.note("# reproduce: %d experiments at scale quick, serial, %.3f s of wall time; each experiment counts with its fastest run in CPU seconds",
		len(ids), wall)
	if !cfg.trace {
		// One op is one experiment, checked against its reference.
		var times []float64
		for _, id := range ids {
			times = append(times, best[id]*1e6)
		}
		rep.add("ops_per_s", "1/s", float64(len(ids))/runS)
		rep.addN("p50_us", "us", quantile(times, 0.50), uint64(len(times)))
		rep.addN("p99_us", "us", quantile(times, 0.99), uint64(len(times)))
		rep.add("setup_s", "s", median(setups))
		rep.add("heap_mb", "MB", heapMB())
		rep.detail("run_s", "s", runS)
		return rep, nil
	}
	var parts []part
	for _, id := range ids {
		rep.detail("harness."+id+"_s", "s", best[id])
		parts = append(parts, part{"harness.Run " + id, 1, best[id]})
	}
	rep.lines = append(rep.lines, attribution("reproduce suite (run_s)", "s", runS, parts)...)
	// One more suite with the observability layer attached counts the
	// simulated index calls and memory traffic; its CPU time against
	// run_s is the tracing overhead.
	ob := obs.New()
	secs, err := suite(&rep, p, ids, refs, ob, true, 1, 0)
	if err != nil {
		return rep, err
	}
	tracedS := 0.0
	for _, s := range secs {
		tracedS += s
	}
	counters := ob.Reg.Snapshot().Counters
	reportCounters(&rep, counters)
	rep.add("bench.trace_overhead_frac", "frac", 1-runS/tracedS)
	rep.detail("reproduce.line_accesses_per_s", "1/s", float64(counters["mem.line_accesses"])/tracedS)
	u, err := probeLayers(cfg)
	if err != nil {
		return rep, err
	}
	u.report(&rep)
	return rep, writeTrace(cfg, &rep)
}

// quantile is the q-quantile of xs, interpolating linearly between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
