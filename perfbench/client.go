package main

import (
	"fmt"
	"sync"
	"time"

	"repro"
)

// opKind names the timed operation types.
type opKind int

const (
	kSearch opKind = iota
	kInsert
	kDelete
	kScan
	kCommit
	nKinds
)

var kindNames = [nKinds]string{"search", "insert", "delete", "scan", "commit"}

// epoch anchors the benchmark's monotonic nanosecond clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// mix64 is the splitmix64 finalizer: a cheap bijective hash used to
// derive keys, tuple IDs and random streams from the seed.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// tidOf is the tuple ID every workload stores under key k, so a search
// result is checkable without a stored model.
func tidOf(salt uint64, k uint32) uint32 { return uint32(mix64(uint64(k) ^ salt)) }

// bulkEntries is the sorted bulkload input: key keyOf(i) for i < n,
// each with its checkable tuple ID.
func bulkEntries(n int, keyOf func(int) uint32, salt uint64) []fpbtree.Entry {
	es := make([]fpbtree.Entry, n)
	for i := range es {
		k := keyOf(i)
		es[i] = fpbtree.Entry{Key: k, TID: tidOf(salt, k)}
	}
	return es
}

// client is one closed-loop caller: it owns its random stream, its
// latency histograms and its span log, so the hot path shares nothing
// with the other clients.
type client struct {
	id   int
	rng  uint64
	lat  [nKinds]hist
	last int64 // end time of the client's latest call

	// timing selects whether completed calls count toward the measured
	// phase (latency histograms and ops); warm-up calls do not.
	timing bool
	ops    uint64

	checks, failed uint64
	firstErr       string

	// spans is non-nil while the traced phase records facade spans;
	// tracedOps counts calls completed while it was set.
	spans     *spanLog
	tracedOps uint64
}

func newClient(seed int64, id int) *client {
	return &client{id: id, rng: mix64(uint64(seed)*0x2545f4914f6cdd1d + uint64(id) + 1)}
}

func (c *client) next() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	return mix64(c.rng)
}

// below returns a uniform integer in [0, n).
func (c *client) below(n int) int { return int(((c.next() >> 32) * uint64(n)) >> 32) }

// done closes a call that started at t0.
func (c *client) done(k opKind, t0 int64) {
	t1 := now()
	c.last = t1
	if c.timing {
		c.lat[k].record(uint64(t1 - t0))
		c.ops++
	}
	if c.spans != nil {
		c.spans.add(spanOp[k], t0, t1)
		c.tracedOps++
	}
}

// verify counts one checked result; what and k describe a failure.
func (c *client) verify(ok bool, what string, k uint32) {
	c.checks++
	if !ok {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = fmt.Sprintf("client %d: %s (key %d)", c.id, what, k)
		}
	}
}

// worker is a workload's per-client state machine; step issues one
// call and must close it with client.done.
type worker interface {
	base() *client
	step()
}

// warmup runs n untimed calls per worker.
func warmup(ws []worker, n int) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			c := w.base()
			c.timing = false
			for i := 0; i < n; i++ {
				w.step()
			}
		}(w)
	}
	wg.Wait()
}

// closedLoop runs every worker until d has elapsed. timing selects
// whether the calls count as measured; traced attaches span logs.
func closedLoop(ws []worker, d time.Duration, timing, traced bool) {
	deadline := now() + int64(d)
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			c := w.base()
			c.timing = timing
			if traced {
				c.spans = spanLogFor(c.id)
			}
			c.last = now()
			for c.last < deadline {
				w.step()
			}
			if c.spans != nil {
				c.spans.closePhase()
				c.spans = nil
			}
			c.timing = false
		}(w)
	}
	wg.Wait()
}

// tracedSlices is how many equal slices a traced run alternates
// between untraced and traced.
const tracedSlices = 6

// sliceLen is the length of one measured slice of an untraced run. Each
// end-to-end figure is the median of its per-slice values, so a burst
// of interference from the host moves one slice, not the result.
const sliceLen = time.Second

// sliceStat is one measured slice's figures, merged over the clients.
// Index nKinds of p50 and p99 holds the quantiles over every call.
type sliceStat struct {
	p50, p99 [nKinds + 1]float64 // nanoseconds
	n        [nKinds]uint64
	ops      uint64
	secs     float64
}

// measured is the measured phase: each slice's figures, and the sample
// counts summed over all slices (and, in a traced run, over the
// untraced slices only).
type measured struct {
	slices []sliceStat
	n      [nKinds]uint64
	ops    uint64
	secs   float64
}

// collect closes a slice: it merges the clients' counts for the loop
// just run, resetting them, and records the slice's figures.
func (m *measured) collect(ws []worker, secs float64) {
	lat := new([nKinds]hist)
	st := sliceStat{secs: secs}
	for _, w := range ws {
		c := w.base()
		for k := range lat {
			lat[k].merge(&c.lat[k])
			c.lat[k] = hist{}
		}
		st.ops += c.ops
		c.ops = 0
	}
	var all hist
	for k := range lat {
		st.p50[k], st.p99[k], st.n[k] = lat[k].quantile(0.50), lat[k].quantile(0.99), lat[k].n
		m.n[k] += st.n[k]
		all.merge(&lat[k])
	}
	st.p50[nKinds], st.p99[nKinds] = all.quantile(0.50), all.quantile(0.99)
	m.ops += st.ops
	m.secs += secs
	m.slices = append(m.slices, st)
}

// sliceMedian is the median over the slices of f, skipping slices that
// hold no sample of kind k (all slices when k is nKinds).
func (m *measured) sliceMedian(k opKind, f func(*sliceStat) float64) float64 {
	var xs []float64
	for i := range m.slices {
		if k == nKinds || m.slices[i].n[k] > 0 {
			xs = append(xs, f(&m.slices[i]))
		}
	}
	return median(xs)
}

// opsPerSec is the median slice's throughput: timed calls of every
// kind (a durable transaction's Commit counts as one) per second.
func (m *measured) opsPerSec() float64 {
	return m.sliceMedian(nKinds, func(s *sliceStat) float64 { return float64(s.ops) / s.secs })
}

// p50 is kind k's median latency in nanoseconds (the median slice's);
// kind nKinds is every call.
func (m *measured) p50(k opKind) float64 {
	return m.sliceMedian(k, func(s *sliceStat) float64 { return s.p50[k] })
}

// p99 is kind k's 99th-percentile latency in nanoseconds (the median
// slice's); kind nKinds is every call.
func (m *measured) p99(k opKind) float64 {
	return m.sliceMedian(k, func(s *sliceStat) float64 { return s.p99[k] })
}

// measure runs the measured phase. Untraced, it runs slices of
// sliceLen back to back. Traced, it alternates untraced and traced
// slices of equal length (so drift lands on both), measures only the
// untraced ones, and also returns the tracing overhead: one minus the
// traced/untraced throughput ratio.
func measure(ws []worker, d time.Duration, traced bool) (m *measured, overhead float64) {
	m = &measured{}
	if !traced {
		slices := max(1, int((d+sliceLen/2)/sliceLen))
		for i := 0; i < slices; i++ {
			t0 := time.Now()
			closedLoop(ws, d/time.Duration(slices), true, false)
			m.collect(ws, time.Since(t0).Seconds())
		}
		return m, 0
	}
	var tracedSecs float64
	for i := 0; i < tracedSlices; i++ {
		withSpans := i%2 == 1
		t0 := time.Now()
		closedLoop(ws, d/tracedSlices, !withSpans, withSpans)
		if withSpans {
			tracedSecs += time.Since(t0).Seconds()
		} else {
			m.collect(ws, time.Since(t0).Seconds())
		}
	}
	var tracedOps uint64
	for _, w := range ws {
		tracedOps += w.base().tracedOps
	}
	return m, 1 - (float64(tracedOps)/tracedSecs)/(float64(m.ops)/m.secs)
}

// checked sums the clients' verification counts.
func checked(ws []worker) (checks, failed uint64, firstErr string) {
	for _, w := range ws {
		c := w.base()
		checks += c.checks
		failed += c.failed
		if firstErr == "" {
			firstErr = c.firstErr
		}
	}
	return
}

// reportServing adds the end-to-end figures of a serving workload's
// measured phase: throughput, and p50 and p99 over every call, in
// microseconds with the run's sample count. Each kind's own p50 and p99
// follow as details.
func reportServing(r *report, m *measured) {
	r.add("ops_per_s", "1/s", m.opsPerSec())
	r.addN("p50_us", "us", m.p50(nKinds)/1e3, m.ops)
	r.addN("p99_us", "us", m.p99(nKinds)/1e3, m.ops)
	for k := opKind(0); k < nKinds; k++ {
		if m.n[k] > 0 {
			r.detailN(kindNames[k]+"_p50_us", "us", m.p50(k)/1e3, m.n[k])
			r.detailN(kindNames[k]+"_p99_us", "us", m.p99(k)/1e3, m.n[k])
		}
	}
}
