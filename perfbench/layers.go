package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/filestore"
	"repro/internal/idx"
	"repro/internal/latch"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/wal"
)

// The traced run's per-layer measurements, the same set on every
// workload. Per-op counts come from registry deltas around the measured
// phase (Tree.MetricsSnapshot, or the simulation suite's registry for
// reproduce). Unit costs come from a probe: each layer's public
// functions called alone, from this file, on stacks built exactly as
// the facade builds them, the same way on every workload. Each batch of
// isolated calls is one span: a span per call would cost more than the
// calls it times.

const pageSize = 16 << 10

// isolatedClient is the span-log owner of isolated layer batches.
const isolatedClient = 1000

// probeFill is the probe stack's bulkload fill; its keys are laid out
// as the oltp workload's, so inserts fall between them.
const probeFill = 0.8

func counterDelta(before, after obs.Snapshot) map[string]uint64 {
	d := make(map[string]uint64, len(after.Counters))
	for name, v := range after.Counters {
		d[name] = v - before.Counters[name]
	}
	return d
}

// perCall times f(n) over several batches and returns the median
// nanoseconds per call, recording one span per batch. prep, when not
// nil, runs untimed before each batch.
func perCall(name string, n int, prep func(), f func(n int)) float64 {
	const batches = 7
	sn := spanName("isolated." + name)
	l := spanLogFor(isolatedClient)
	if prep != nil {
		prep()
	}
	f(n / 4) // warm caches and lazily built state
	var per []float64
	for b := 0; b < batches; b++ {
		if prep != nil {
			prep()
		}
		t0 := now()
		f(n)
		t1 := now()
		l.add(sn, t0, t1)
		per = append(per, float64(t1-t0)/float64(n))
	}
	l.closePhase()
	return median(per)
}

// perCallPair is perCall for two functions timed in alternating
// batches, so that a change in the host's speed lands on both alike and
// their difference stays steady.
func perCallPair(nameA, nameB string, n int, fa, fb func(n int)) (a, b float64) {
	const batches = 7
	sa, sb := spanName("isolated."+nameA), spanName("isolated."+nameB)
	l := spanLogFor(isolatedClient)
	fa(n / 4)
	fb(n / 4)
	var pa, pb []float64
	for i := 0; i < batches; i++ {
		t0 := now()
		fa(n)
		t1 := now()
		fb(n)
		t2 := now()
		l.add(sa, t0, t1)
		l.add(sb, t1, t2)
		pa = append(pa, float64(t1-t0)/float64(n))
		pb = append(pb, float64(t2-t1)/float64(n))
	}
	l.closePhase()
	return median(pa), median(pb)
}

// part is one attribution-table row: a layer's unit cost and how many
// times one operation pays it.
type part struct {
	name     string
	count    float64
	unitCost float64
}

// attribution renders the ledger for one operation type: the layer
// costs summed against the measured median, with the residual. unit
// names the time unit of the costs and the median.
func attribution(op, unit string, measured float64, parts []part) []string {
	rows := [][]string{{"component", "per-op count", "unit " + unit, unit + "/op"}}
	sum := 0.0
	for _, p := range parts {
		v := p.count * p.unitCost
		sum += v
		rows = append(rows, []string{p.name, fmt.Sprintf("%.3f", p.count), fmt.Sprintf("%.4g", p.unitCost), fmt.Sprintf("%.4g", v)})
	}
	rows = append(rows,
		[]string{"sum of layers", "", "", fmt.Sprintf("%.4g", sum)},
		[]string{"measured (untraced)", "", "", fmt.Sprintf("%.4g", measured)},
		[]string{"residual", "", "", fmt.Sprintf("%.4g (%.0f%%)", measured-sum, 100*(measured-sum)/measured)})
	return append([]string{"# attribution: " + op}, table(rows)...)
}

// writeTrace writes the run's spans under cfg.out and notes where.
func writeTrace(cfg config, rep *report) error {
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	kept, dropped, err := writeSpans(path)
	if err != nil {
		return err
	}
	rep.note("# spans: %d kept, %d dropped (per-client cap %d), written to %s", kept, dropped, spanCap, path)
	return nil
}

// memStack builds the facade's concurrent disk-first stack directly:
// a sharded latched pool over a memory store, frozen memory model,
// optimistic reads.
func memStack(frames int, entries []idx.Entry, fill float64) (*core.DiskFirst, *buffer.Pool, *obs.Registry, error) {
	pool := buffer.NewConcurrentPool(buffer.NewMemStore(pageSize), frames, 4)
	mm := memsim.NewDefault()
	pool.AttachModel(mm)
	mm.SetConcurrent(true)
	t, err := core.NewDiskFirst(core.DiskFirstConfig{Pool: pool, Model: mm, EnableJPA: true, OptimisticReads: true})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := t.Bulkload(entries, fill); err != nil {
		return nil, nil, nil, err
	}
	reg := obs.NewRegistry()
	pool.RegisterMetrics(reg)
	return t, pool, reg, nil
}

// reportCounters adds the per-op counter metrics of a measured phase
// from its registry delta d. An op is an index call (Search, Insert,
// Delete or RangeScan); a counter the workload never moves reads 0.
func reportCounters(rep *report, d map[string]uint64) {
	ops := float64(d["tree.searches"] + d["tree.inserts"] + d["tree.deletes"] + d["tree.scans"])
	per := func(name string) float64 {
		if ops == 0 {
			return 0
		}
		return float64(d[name]) / ops
	}
	rep.add("latch.opt_restarts_per_op", "count", per("latch.opt_restarts"))
	rep.add("latch.opt_fallbacks_per_op", "count", per("latch.opt_fallbacks"))
	rep.add("latch.shared_per_op", "count", per("latch.shared_acquisitions"))
	rep.add("latch.exclusive_per_op", "count", per("latch.exclusive_acquisitions"))
	rep.add("latch.writer_waits_per_op", "count", per("latch.writer_waits"))
	rep.add("buffer.gets_per_op", "count", per("buffer.gets"))
	rep.add("buffer.locked_gets_per_op", "count", per("pool.shard.locked_gets"))
	rep.add("buffer.misses_per_op", "count", per("buffer.gets")-per("buffer.hits"))
	rep.add("buffer.evictions_per_op", "count", per("buffer.evictions"))
	rep.add("buffer.dirty_writes_per_op", "count", per("buffer.dirty_writes"))
	rep.add("wal.bytes_per_op", "B", per("wal.bytes_written"))
	rep.add("wal.fsyncs_per_op", "count", per("wal.fsyncs"))
	rep.add("filestore.reads_per_op", "count", per("filestore.reads"))
}

var searchSink uint32

// unitCosts are the probe's figures: the per-call cost of each layer's
// public functions, and the per-call counts the attribution tables need.
type unitCosts struct {
	facadeSearchNs, coreSearchNs, inpageNs, visitsPerSearch, linesPerSec float64
	insertNs, pagesPer1kInserts, getsPerInsert, exclPerInsert            float64
	scanNsPerEntry, getsPerScan                                          float64
	validateNs, lockNs, readOptNs, getHitNs, missNs                      float64
	appendPageNs, commitNs, readNs, histNs, hist2cNs                     float64
}

func (u *unitCosts) report(rep *report) {
	rep.add("fpbtree.search_overhead_ns", "ns", u.facadeSearchNs-u.coreSearchNs)
	rep.add("core.search_ns", "ns", u.coreSearchNs)
	rep.add("core.inpage_search_ns", "ns", u.inpageNs)
	rep.add("core.node_visits_per_search", "count", u.visitsPerSearch)
	rep.add("core.insert_ns", "ns", u.insertNs)
	rep.add("core.pages_per_1k_inserts", "count", u.pagesPer1kInserts)
	rep.add("core.scan_ns_per_entry", "ns", u.scanNsPerEntry)
	rep.add("latch.validate_ns", "ns", u.validateNs)
	rep.add("latch.lock_unlock_ns", "ns", u.lockNs)
	rep.add("buffer.readopt_ns", "ns", u.readOptNs)
	rep.add("buffer.get_hit_ns", "ns", u.getHitNs)
	rep.add("buffer.miss_ns", "ns", u.missNs)
	rep.add("wal.append_page_ns", "ns", u.appendPageNs)
	rep.add("wal.commit_ns", "ns", u.commitNs)
	rep.add("filestore.read_ns", "ns", u.readNs)
	rep.add("obs.hist_record_ns", "ns", u.histNs)
	rep.add("obs.hist_record_2c_ns", "ns", u.hist2cNs)
	rep.add("memsim.line_accesses_per_s", "1/s", u.linesPerSec)
}

// probeLayers measures the unit costs on a probe of cfg.sz.probeKeys
// keys in the oltp layout, drawn from the seed: a facade tree and the
// identically built core stack for search, insert and scan, a
// simulation-mode tree for node visits and simulated memory traffic,
// and the latch, obs, filestore, buffer-miss and WAL functions on their
// own.
func probeLayers(cfg config) (unitCosts, error) {
	var u unitCosts
	sh := &oltpShared{n: cfg.sz.probeKeys, salt: mix64(uint64(cfg.seed) ^ 0x70726f62)}
	entries := bulkEntries(sh.n, oltpBulkKey, sh.salt)
	keys := make([]uint32, 1<<16)
	c := newClient(cfg.seed, 99)
	for i := range keys {
		keys[i] = oltpBulkKey(c.below(sh.n))
	}

	err := probeCore(cfg, &u, sh, entries, keys)
	if err != nil {
		return u, err
	}
	runtime.GC() // release the probe stacks
	if u.visitsPerSearch, u.linesPerSec, err = simSearch(entries, probeFill, keys); err != nil {
		return u, err
	}
	runtime.GC()
	if u.inpageNs, err = inpageSearchNs(); err != nil {
		return u, err
	}
	lt := latch.NewTable()
	u.validateNs = perCall("latch.ReadVersion+Validate", 1<<22, nil, func(n int) {
		for i := 0; i < n; i++ {
			pid := uint32(1 + i&1023)
			if v, ok := lt.ReadVersion(pid); ok && lt.Validate(pid, v) {
				searchSink++
			}
		}
	})
	u.lockNs = perCall("latch.Lock+Unlock", 1<<22, nil, func(n int) {
		for i := 0; i < n; i++ {
			pid := uint32(1 + i&1023)
			lt.Lock(pid)
			lt.Unlock(pid)
		}
	})
	u.histNs, u.hist2cNs = histRecordCosts()
	dir, err := freshDir(cfg, "probe")
	if err != nil {
		return u, err
	}
	defer os.RemoveAll(dir)
	return u, probeStorage(&u, dir)
}

// probeCore times search on a facade tree against the core stack it
// builds, then insert, scan and page access on that core stack.
func probeCore(cfg config, u *unitCosts, sh *oltpShared, entries []idx.Entry, keys []uint32) error {
	tree, err := fpbtree.New(fpbtree.WithConcurrency(2))
	if err != nil {
		return err
	}
	if err := tree.Bulkload(entries, probeFill); err != nil {
		return err
	}
	t, pool, reg, err := memStack(8192, entries, probeFill)
	if err != nil {
		return err
	}
	u.facadeSearchNs, u.coreSearchNs = perCallPair("fpbtree.Search", "core.DiskFirst.Search", len(keys),
		func(n int) {
			for i := 0; i < n; i++ {
				tid, _, _ := tree.Search(keys[i%len(keys)])
				searchSink += tid
			}
		},
		func(n int) {
			for i := 0; i < n; i++ {
				tid, _, _ := t.Search(keys[i%len(keys)])
				searchSink += tid
			}
		})
	tree = nil
	maxPID := int(pool.MaxPageID())
	u.readOptNs = perCall("buffer.ReadOpt", 1<<20, nil, func(n int) {
		for i := 0; i < n; i++ {
			pg, ok := pool.ReadOpt(uint32(1 + i%maxPID))
			if ok && pool.ValidateOpt(pg) {
				searchSink++
			}
		}
	})
	u.getHitNs = perCall("buffer.Get+Unpin", 1<<20, nil, func(n int) {
		for i := 0; i < n; i++ {
			pg, err := pool.Get(uint32(1 + i%maxPID))
			if err == nil {
				pool.Unpin(pg, false)
			}
		}
	})

	// The inserts land in the first eighth of the key space, where they
	// add half again to the keys, so leaf pages fill up and split.
	c := newClient(cfg.seed, 98)
	const inserts = 1 << 17
	slot := make(map[int]uint32)
	ins := make([]uint32, inserts)
	for i := range ins {
		g := c.below(sh.n / 8)
		for slot[g] >= gapSlots {
			g = c.below(sh.n / 8)
		}
		ins[i] = uint32(g)<<gapBits | (2 + 2*slot[g])
		slot[g]++
	}
	pages0 := t.PageCount()
	before := reg.Snapshot()
	t0 := now()
	for _, k := range ins {
		if err := t.Insert(k, tidOf(sh.salt, k)); err != nil {
			return err
		}
	}
	t1 := now()
	u.insertNs = float64(t1-t0) / inserts
	u.pagesPer1kInserts = float64(t.PageCount()-pages0) / inserts * 1000
	sl := spanLogFor(isolatedClient)
	sl.add(spanName("isolated.core.DiskFirst.Insert"), t0, t1)
	sl.closePhase()
	d := counterDelta(before, reg.Snapshot())
	u.getsPerInsert = float64(d["buffer.gets"]) / inserts
	u.exclPerInsert = float64(d["latch.exclusive_acquisitions"]) / inserts

	const scans = 4096
	starts := make([]int, scans)
	for i := range starts {
		starts[i] = c.below(sh.n - scanLen)
	}
	before = reg.Snapshot()
	var scanned, calls int
	var scanErr error
	nsPerScan := perCall("core.DiskFirst.RangeScan", scans, nil, func(n int) {
		for i := 0; i < n; i++ {
			g0 := starts[i%scans]
			seen := 0
			start, end := uint32(g0)<<gapBits|1, uint32(g0+scanLen-1)<<gapBits|1
			if _, err := t.RangeScan(start, end, func(idx.Key, idx.TupleID) bool { seen++; return seen < scanLen }); err != nil {
				scanErr = err
			}
			scanned += seen
			calls++
		}
	})
	if scanErr != nil {
		return scanErr
	}
	d = counterDelta(before, reg.Snapshot())
	u.getsPerScan = float64(d["buffer.gets"]) / float64(calls)
	u.scanNsPerEntry = nsPerScan / (float64(scanned) / float64(calls))
	return nil
}

// simSearch searches keys on a simulation-mode tree bulkloaded from
// entries at fill and returns in-page node visits per search and the
// memory model's line accesses per wall second. The serving path counts
// neither, so both come from an identically shaped simulated tree.
func simSearch(entries []idx.Entry, fill float64, keys []uint32) (visits, linesPerSec float64, err error) {
	sim, err := fpbtree.New()
	if err != nil {
		return 0, 0, err
	}
	if err := sim.Bulkload(entries, fill); err != nil {
		return 0, 0, err
	}
	before := sim.MetricsSnapshot()
	t0 := now()
	for _, k := range keys {
		if _, _, err := sim.Search(k); err != nil {
			return 0, 0, err
		}
	}
	t1 := now()
	sl := spanLogFor(isolatedClient)
	sl.add(spanName("isolated.simulated.Search"), t0, t1)
	sl.closePhase()
	d := counterDelta(before, sim.MetricsSnapshot())
	return float64(d["tree.node_visits"]) / float64(d["tree.searches"]),
		float64(d["mem.line_accesses"]) / (float64(t1-t0) / 1e9), nil
}

// inpageSearchNs is the SWAR in-page leaf search at the default width.
func inpageSearchNs() (float64, error) {
	res, err := core.BenchInPageSearch(0, 1<<20)
	if err != nil {
		return 0, err
	}
	for _, r := range res {
		if r.Impl == "swar" {
			return r.NsPerOp, nil
		}
	}
	return 0, fmt.Errorf("in-page search bench has no swar cell")
}

// histRecordCosts times obs.Histogram.Record from one goroutine and
// from two goroutines sharing one histogram.
func histRecordCosts() (one, two float64) {
	var h obs.Histogram
	one = perCall("obs.Histogram.Record", 1<<22, nil, func(n int) {
		for i := 0; i < n; i++ {
			h.Record(uint64(1000 + i&1023))
		}
	})
	var shared obs.Histogram
	two = perCall("obs.Histogram.Record.2c", 1<<21, nil, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					shared.Record(uint64(1000 + i&1023))
				}
			}()
		}
		wg.Wait()
	})
	return one, two
}

// probeStorage times the storage layers on their own files under dir,
// with the durable workload's flush policy.
func probeStorage(u *unitCosts, dir string) error {
	const pages = 2048
	fs, err := filestore.OpenFileStore(filepath.Join(dir, "iso-pages.db"), pageSize, true)
	if err != nil {
		return err
	}
	defer fs.Close()
	img := make([]byte, pageSize)
	for pid := uint32(1); pid <= pages; pid++ {
		img[0], img[1] = byte(pid), byte(pid>>8)
		if _, err := fs.WritePage(pid, img, 0); err != nil {
			return err
		}
	}
	u.readNs = perCall("filestore.ReadPage", 1<<14, nil, func(n int) {
		for i := 0; i < n; i++ {
			fs.ReadPage(uint32(1+i%pages), img, 0)
		}
	})
	// A pool a quarter the size of the file misses on every Get of a
	// sequential sweep.
	pool := buffer.NewConcurrentPool(fs, pages/4, 2)
	mm := memsim.NewDefault()
	pool.AttachModel(mm)
	mm.SetConcurrent(true)
	var missErr error
	u.missNs = perCall("buffer.Get(miss)+Unpin", 1<<14, nil, func(n int) {
		for i := 0; i < n; i++ {
			pg, err := pool.Get(uint32(1 + i%pages))
			if err != nil {
				missErr = err
				continue
			}
			pool.Unpin(pg, false)
		}
	})
	if missErr != nil {
		return missErr
	}
	walDir := filepath.Join(dir, "iso-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	log, err := wal.Start(walDir, wal.RecoveryResult{}, wal.Options{NoFsync: true})
	if err != nil {
		return err
	}
	defer log.Close()
	var walErr error
	// Rotating before each batch keeps at most two 4 MiB segments on disk.
	rotate := func() {
		if err := log.Rotate(0, nil); err != nil {
			walErr = err
		}
	}
	u.appendPageNs = perCall("wal.Log.AppendPage", 256, rotate, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := log.AppendPage(uint32(1+i%pages), img); err != nil {
				walErr = err
			}
		}
	})
	meta := make([]byte, 64)
	u.commitNs = perCall("wal.Log.AppendCommit+Sync", 1<<14, rotate, func(n int) {
		for i := 0; i < n; i++ {
			lsn, err := log.AppendCommit(uint64(i), meta)
			if err == nil {
				err = log.Sync(lsn)
			}
			if err != nil {
				walErr = err
			}
		}
	})
	return walErr
}
