package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro"
)

// The durable workload: 2M keys bulkloaded at fill 0.7 (about 1,500
// pages, 24 MiB) into a file-backed store behind a 256-frame (4 MiB)
// pool, so searches miss the pool, evictions write back, and the
// default 4 MiB checkpoint threshold cycles many times per run. One
// client runs transactions of 16 operations (50% Search, 30% Insert,
// 10% Delete, 10% RangeScan of 100) over uniform keys, each ending in
// Commit. The run ends with Kill, reopen and full verification. The
// flush policy is WithStoreNoFsync: write ordering and fsync counts are
// kept, only the physical fsync is elided, so the numbers measure the
// program rather than the shared disk.

const (
	dGapBits   = 6 // key = gap<<dGapBits | offset; offset 1 is the bulk key
	txnOps     = 16
	warmupTxns = 500
	recoveries = 7 // reopens of identical copies; recovery_s is the fastest
)

func durableBulkKey(g int) uint32 { return uint32(g)<<dGapBits | 1 }

// durableModel is the exact committed state a single client expects.
type durableModel struct {
	n       int
	salt    uint64
	deleted []bool  // per gap: bulk key deleted
	insIn   []uint8 // per gap: inserted keys
	ins     map[uint32]bool
	insKeys []uint32 // inserted keys (never deleted)
}

func newDurableModel(n int, salt uint64) *durableModel {
	return &durableModel{n: n, salt: salt, deleted: make([]bool, n), insIn: make([]uint8, n), ins: map[uint32]bool{}}
}

// inGap is the number of live keys the model holds in gap g.
func (m *durableModel) inGap(g int) int {
	n := int(m.insIn[g])
	if !m.deleted[g] {
		n++
	}
	return n
}

func (m *durableModel) live() int {
	n := len(m.insKeys)
	for _, d := range m.deleted {
		if !d {
			n++
		}
	}
	return n
}

type durableWorker struct {
	*client
	tree *fpbtree.Tree
	m    *durableModel
	tag  uint64
	buf  []fpbtree.Entry

	inserts, deletes uint64
	// checkpoints holds the durations of commits that crossed the
	// checkpoint threshold (traced runs only).
	traceCkpt   bool
	checkpoints []float64
}

func (w *durableWorker) base() *client { return w.client }

// step runs one transaction: txnOps operations, then Commit.
func (w *durableWorker) step() {
	c := w.client
	for i := 0; i < txnOps; i++ {
		switch r := c.below(10); {
		case r < 5:
			w.search()
		case r < 8:
			w.insert()
		case r < 9:
			w.delete()
		default:
			w.scan()
		}
	}
	w.tag++
	walBefore := int64(0)
	if w.traceCkpt {
		walBefore = w.tree.WALBytes()
	}
	t0 := now()
	err := w.tree.Commit(w.tag)
	c.done(kCommit, t0)
	c.verify(err == nil, "commit failed", uint32(w.tag))
	if w.traceCkpt && w.tree.WALBytes() < walBefore {
		w.checkpoints = append(w.checkpoints, float64(c.last-t0)/1e6)
	}
}

func (w *durableWorker) search() {
	c, m := w.client, w.m
	var k uint32
	present := true
	if len(m.insKeys) > 0 && c.below(4) == 0 {
		k = m.insKeys[c.below(len(m.insKeys))]
	} else {
		g := c.below(m.n)
		k = uint32(g)<<dGapBits | 1
		present = !m.deleted[g]
	}
	t0 := now()
	tid, ok, err := w.tree.Search(k)
	c.done(kSearch, t0)
	c.verify(err == nil && ok == present && (!ok || tid == tidOf(m.salt, k)), "search result disagrees with the model", k)
}

func (w *durableWorker) insert() {
	c, m := w.client, w.m
	var g int
	var k uint32
	for {
		g = c.below(m.n)
		k = uint32(g)<<dGapBits | uint32(2+c.below(1<<dGapBits-2))
		if !m.ins[k] {
			break
		}
	}
	t0 := now()
	err := w.tree.Insert(k, tidOf(m.salt, k))
	c.done(kInsert, t0)
	c.verify(err == nil, "insert failed", k)
	m.ins[k] = true
	m.insKeys = append(m.insKeys, k)
	m.insIn[g]++
	w.inserts++
}

func (w *durableWorker) delete() {
	c, m := w.client, w.m
	g := c.below(m.n)
	k := uint32(g)<<dGapBits | 1
	t0 := now()
	ok, err := w.tree.Delete(k)
	c.done(kDelete, t0)
	c.verify(err == nil && ok == !m.deleted[g], "delete result disagrees with the model", k)
	m.deleted[g] = true
	w.deletes++
}

// scan reads up to scanLen entries from a uniform gap's bulk key,
// within a range of 2*scanLen gaps so the scan's prefetch window stays
// inside it.
func (w *durableWorker) scan() {
	c, m := w.client, w.m
	g0 := c.below(m.n)
	g1 := min(g0+2*scanLen, m.n) - 1
	start := uint32(g0)<<dGapBits | 1
	end := uint32(g1)<<dGapBits | (1<<dGapBits - 1)
	buf := w.buf[:0]
	t0 := now()
	n, err := w.tree.RangeScan(start, end, func(k fpbtree.Key, tid fpbtree.TupleID) bool {
		buf = append(buf, fpbtree.Entry{Key: k, TID: tid})
		return len(buf) < scanLen
	})
	c.done(kScan, t0)
	w.buf = buf
	want := 0
	for g := g0; g <= g1 && want < scanLen; g++ {
		want += m.inGap(g)
	}
	c.verify(err == nil && n == len(buf) && n == min(want, scanLen), "scan count differs from the model", start)
	c.verify(m.scanConsistent(buf, g0, false), "scan order or content disagrees with the model", start)
}

// scanConsistent checks ascending order, TIDs and per-gap membership
// of a scan that started at gap g0's bulk key. Every gap the scan
// passed completely must hold exactly the model's keys; the last gap
// is checked too when complete (a full scan).
func (m *durableModel) scanConsistent(buf []fpbtree.Entry, g0 int, complete bool) bool {
	gap, cnt := g0, 0
	prev := uint32(0)
	for i, e := range buf {
		if e.TID != tidOf(m.salt, e.Key) || (i > 0 && e.Key <= prev) {
			return false
		}
		prev = e.Key
		g, off := int(e.Key>>dGapBits), e.Key&(1<<dGapBits-1)
		if g >= m.n || g < gap {
			return false
		}
		for ; gap < g; gap++ {
			if cnt != m.inGap(gap) {
				return false
			}
			cnt = 0
		}
		if (off == 1 && m.deleted[g]) || (off != 1 && !m.ins[e.Key]) {
			return false
		}
		cnt++
	}
	if complete {
		for ; gap < m.n; gap++ {
			if cnt != m.inGap(gap) {
				return false
			}
			cnt = 0
		}
	}
	return true
}

// openDurable opens (or recovers) the store in dir with the workload's
// configuration.
func openDurable(cfg config, dir string) (*fpbtree.Tree, error) {
	return fpbtree.New(fpbtree.WithConcurrency(1), fpbtree.WithBufferPages(cfg.sz.durablePool),
		fpbtree.WithStorePath(dir), fpbtree.WithStoreNoFsync())
}

func runDurable(cfg config) (report, error) {
	var rep report
	n := cfg.sz.durableKeys
	salt := mix64(uint64(cfg.seed) ^ 0x64757261)
	entries := bulkEntries(n, durableBulkKey, salt)
	dir, err := freshDir(cfg, "durable")
	if err != nil {
		return rep, err
	}
	defer os.RemoveAll(dir)
	var tree *fpbtree.Tree
	var w *durableWorker
	var setups []float64
	for s := 0; s < cfg.sz.setups; s++ {
		if tree != nil {
			if err := tree.Kill(); err != nil {
				return rep, err
			}
		}
		tree, w = nil, nil
		runtime.GC()
		if dir, err = freshDir(cfg, "durable"); err != nil {
			return rep, err
		}
		c0 := cpuSeconds()
		if tree, err = openDurable(cfg, dir); err != nil {
			return rep, err
		}
		if err := tree.Bulkload(entries, 0.7); err != nil {
			return rep, fmt.Errorf("durable bulkload: %w", err)
		}
		if err := tree.Checkpoint(1); err != nil {
			return rep, err
		}
		w = &durableWorker{client: newClient(cfg.seed, 0), tree: tree, m: newDurableModel(n, salt), tag: 1,
			buf: make([]fpbtree.Entry, 0, scanLen)}
		warmup([]worker{w}, warmupTxns)
		setups = append(setups, cpuSeconds()-c0)
	}

	w.traceCkpt = cfg.trace
	ins0, del0 := w.inserts, w.deletes
	before := tree.MetricsSnapshot()
	m, overhead := measure([]worker{w}, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace)
	after := tree.MetricsSnapshot()
	w.traceCkpt = false
	userBytes := 8 * float64(w.inserts-ins0+w.deletes-del0)

	// End at the same point of the checkpoint cycle in every run, so
	// recovery replays a comparable log: run to the next checkpoint,
	// then a fixed number of transactions past it.
	for i, walBytes := 0, tree.WALBytes(); i < 100000; i++ {
		w.step()
		if cur := tree.WALBytes(); cur < walBytes {
			break
		} else {
			walBytes = cur
		}
	}
	for i := 0; i < 32; i++ {
		w.step()
	}
	live := w.m.live()
	pages, height := tree.PageCount(), tree.Height()
	if err := tree.Kill(); err != nil {
		return rep, err
	}
	wantTag := w.tag
	if cfg.mutate {
		wantTag++
	}
	var recov []float64
	var replayed int
	var heap float64
	for r := 0; r < recoveries; r++ {
		cp := fmt.Sprintf("%s-copy%d", dir, r)
		if err := copyDir(dir, cp); err != nil {
			return rep, err
		}
		runtime.GC()
		t0 := time.Now()
		t, err := openDurable(cfg, cp)
		if err != nil {
			return rep, fmt.Errorf("reopen after kill: %w", err)
		}
		recov = append(recov, time.Since(t0).Seconds())
		tag, ok := t.RecoveredTag()
		w.verify(ok && tag == wantTag, "recovered tag differs from the last committed tag", uint32(tag))
		info, _ := t.Recovery()
		replayed = info.PagesReplayed
		var all []fpbtree.Entry
		_, err = t.RangeScan(0, ^uint32(0), func(k fpbtree.Key, tid fpbtree.TupleID) bool {
			all = append(all, fpbtree.Entry{Key: k, TID: tid})
			return true
		})
		w.verify(err == nil && len(all) == live && w.m.scanConsistent(all, 0, true),
			"full scan after recovery differs from the model", uint32(len(all)))
		if r == recoveries-1 {
			// The heap at the end of the run is the recovered tree's. The
			// model is dropped first, so the figure does not grow with
			// the number of keys the run happened to insert.
			w.m = nil
			heap = heapMB()
		}
		if err := t.Kill(); err != nil {
			return rep, err
		}
		os.RemoveAll(cp)
	}

	rep.attempted, rep.failed = w.checks, w.failed
	if w.firstErr != "" {
		rep.note("# first failure: %s", w.firstErr)
	}
	rep.note("# durable: %d bulk keys, %d live at kill, %d pages behind %d frames, last tag %d, flush WithStoreNoFsync",
		n, live, pages, cfg.sz.durablePool, w.tag)
	d := counterDelta(before, after)
	if !cfg.trace {
		reportServing(&rep, m)
		rep.add("setup_s", "s", median(setups))
		rep.add("heap_mb", "MB", heap)
		// Every reopen replays the same log, and interference only adds
		// time, so the fastest one is the recovery's cost.
		rep.detail("recovery_s", "s", slices.Min(recov))
		rep.detail("write_amp", "x", float64(d["wal.bytes_written"]+d["filestore.bytes_written"])/userBytes)
		rep.detail("space_amp", "x", float64(pages)*pageSize/(8*float64(live)))
		return rep, nil
	}
	reportCounters(&rep, d)
	rep.add("bench.trace_overhead_frac", "frac", overhead)
	commits := float64(d["wal.commits"])
	rotations := float64(d["wal.rotations"])
	rep.detail("buffer.hit_ratio", "frac", float64(d["buffer.hits"])/float64(d["buffer.gets"]))
	rep.detail("buffer.dirty_writes_per_commit", "count", float64(d["buffer.dirty_writes"])/commits)
	rep.detail("wal.bytes_per_commit", "B", float64(d["wal.bytes_written"])/commits)
	rep.detail("wal.appends_per_commit", "count", float64(d["wal.appends"])/commits)
	rep.detail("wal.fsyncs_per_commit", "count", float64(d["wal.fsyncs"])/commits)
	rep.detail("filestore.checkpoint_ms", "ms", median(w.checkpoints))
	rep.detail("filestore.bytes_per_checkpoint", "B", float64(d["filestore.bytes_written"])/rotations)
	rep.detail("filestore.recovery_pages_replayed", "count", float64(replayed))
	u, err := probeLayers(cfg)
	if err != nil {
		return rep, err
	}
	u.report(&rep)
	rep.lines = append(rep.lines, attribution("durable commit", "ns", m.p50(kCommit), []part{
		{"wal.AppendPage per logged page", float64(d["wal.appends"])/commits - 1, u.appendPageNs},
		{"wal.AppendCommit+Sync", 1, u.commitNs},
	})...)
	missRatio := 1 - float64(d["buffer.hits"])/float64(d["buffer.gets"])
	rep.lines = append(rep.lines, attribution("durable search (misses per search = height x pool miss ratio; visits from the probe)", "ns", m.p50(kSearch), []part{
		{"buffer.Get miss over the file store", float64(height) * missRatio, u.missNs},
		{"core in-page node search per visit", u.visitsPerSearch, u.inpageNs},
	})...)
	return rep, writeTrace(cfg, &rep)
}

// copyDir copies the flat store directory src to dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	names, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range names {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
