package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// The benchmark's self-test: a short run of every workload must emit
// exactly the metrics BENCHMARK.json names, every one of them, with
// their units, and pass its checks; a planted wrong expectation must
// make it fail. Run it
// from this directory with `go test`.

var smallSizes = sizes{
	lookupKeys:  60_000,
	oltpKeys:    40_000,
	durableKeys: 20_000,
	probeKeys:   40_000,
	setups:      2,
	warmupOps:   2_000,
	durablePool: 64,
	suiteIDs:    []string{"table2", "fig3b", "fig19"},
}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) (workloads []string, e2e, layers map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, w := range s.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	return workloads, e2e, layers
}

func smallRun(t *testing.T, workload string, trace, mutate bool) report {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.3, trace: trace, out: t.TempDir(), commit: "test", sz: smallSizes, mutate: mutate}
	rep, err := run(cfg)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return rep
}

func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	workloads, e2e, layers := loadSpec(t)
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rep := smallRun(t, wl, trace, false)
			if rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: failed %d of %d: %v", wl, trace, rep.failed, rep.attempted, rep.lines)
			}
			want := e2e
			if trace {
				want = layers
			}
			seen := map[string]bool{}
			for _, m := range rep.metrics {
				if m.detail {
					continue
				}
				unit, ok := want[m.name]
				if !ok {
					t.Errorf("%s trace=%v reports %s, which BENCHMARK.json does not list", wl, trace, m.name)
				} else if unit != m.unit {
					t.Errorf("%s: %s has unit %s, BENCHMARK.json says %s", wl, m.name, m.unit, unit)
				}
				if seen[m.name] {
					t.Errorf("%s trace=%v reports %s twice", wl, trace, m.name)
				}
				if !trace && m.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.name, m.value)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s trace=%v: %s = %v", wl, trace, m.name, m.value)
				}
				seen[m.name] = true
			}
			for name := range want {
				if !seen[name] {
					t.Errorf("%s trace=%v does not report %s", wl, trace, name)
				}
			}
		}
	}
}

func TestWrongExpectationFails(t *testing.T) {
	workloads, _, _ := loadSpec(t)
	for _, wl := range workloads {
		rep := smallRun(t, wl, false, true)
		if rep.failed == 0 {
			t.Errorf("%s: a mutated expectation left failed_frac at 0 (%d attempted)", wl, rep.attempted)
		}
	}
}

func TestRefusesMoreClientsThanProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := config{workload: "lookup", seed: 1, seconds: 0.1, out: t.TempDir(), sz: smallSizes}
	if _, err := run(cfg); err == nil {
		t.Fatal("lookup ran two clients with GOMAXPROCS=1")
	}
}

func TestHistogramResolution(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 123456789, 1 << 62} {
		lo, width := bucketRange(histIndex(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
		if v >= subBuckets && width/lo > 1.0/subBuckets {
			t.Errorf("bucket of %d is %.2f%% wide", v, 100*width/lo)
		}
	}
	var h hist
	for v := uint64(1); v <= 10000; v++ {
		h.record(v)
	}
	if p50 := h.quantile(0.5); p50 < 4900 || p50 > 5100 {
		t.Errorf("p50 of 1..10000 = %v", p50)
	}
	if p99 := h.quantile(0.99); p99 < 9800 || p99 > 10000 {
		t.Errorf("p99 of 1..10000 = %v", p99)
	}
}
