package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro"
)

// The lookup workload: 8M keys bulkloaded at fill 1.0 (about 4,100
// 16 KiB pages, 17x one core's L2, inside the default 8,192-frame
// pool), then two clients issue uniform random point searches, 90% for
// present keys and 10% for absent ones. It is miss-bound descent
// through in-page trees and touches no writer, store or WAL code.

// lookupLayout places key i at 2*(3i + r_i) + 1 with a seeded r_i in
// {0,1,2}: strictly increasing, odd, and computable from i, so clients
// need no key table. Even keys are never present.
type lookupLayout struct {
	n    int
	salt uint64
}

func (l lookupLayout) key(i int) uint32 {
	return uint32(2*(3*uint64(i)+mix64(uint64(i)^l.salt)%3) + 1)
}

type lookupWorker struct {
	*client
	tree   *fpbtree.Tree
	lay    lookupLayout
	wrong  uint32 // XORed into expected TIDs; nonzero only in the self-test's mutation
	absent uint64 // count of absent-key probes issued
}

func (w *lookupWorker) base() *client { return w.client }

func (w *lookupWorker) step() {
	c := w.client
	r := c.next()
	k := w.lay.key(int(((r >> 32) * uint64(w.lay.n)) >> 32))
	miss := (r&0xffff)%10 == 0
	if miss {
		k++
	}
	t0 := now()
	tid, ok, err := w.tree.Search(k)
	c.done(kSearch, t0)
	if miss {
		w.absent++
		c.verify(err == nil && !ok, "absent key found", k)
		return
	}
	c.verify(err == nil && ok && tid == tidOf(w.lay.salt, k)^w.wrong, "present key wrong or missing", k)
}

func runLookup(cfg config) (report, error) {
	var rep report
	lay := lookupLayout{n: cfg.sz.lookupKeys, salt: mix64(uint64(cfg.seed))}
	entries := bulkEntries(lay.n, lay.key, lay.salt)
	var wrong uint32
	if cfg.mutate {
		wrong = 1
	}
	var tree *fpbtree.Tree
	var ws []worker
	var setups []float64
	for s := 0; s < cfg.sz.setups; s++ {
		tree, ws = nil, nil
		runtime.GC()
		c0 := cpuSeconds()
		var err error
		tree, err = fpbtree.New(fpbtree.WithConcurrency(2))
		if err != nil {
			return rep, err
		}
		if err := tree.Bulkload(entries, 1.0); err != nil {
			return rep, fmt.Errorf("lookup bulkload: %w", err)
		}
		for id := 0; id < 2; id++ {
			ws = append(ws, &lookupWorker{client: newClient(cfg.seed, id), tree: tree, lay: lay, wrong: wrong})
		}
		warmup(ws, cfg.sz.warmupOps)
		setups = append(setups, cpuSeconds()-c0)
	}
	runtime.GC() // release the bulkload input before measuring

	before := tree.MetricsSnapshot()
	m, overhead := measure(ws, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace)
	after := tree.MetricsSnapshot()
	checks, failed, firstErr := checked(ws)
	rep.attempted, rep.failed = checks, failed
	if firstErr != "" {
		rep.note("# first failure: %s", firstErr)
	}
	var absent uint64
	for _, w := range ws {
		absent += w.(*lookupWorker).absent
	}
	rep.note("# lookup: %d keys, %d pages, height %d, 2 clients, %d absent-key probes", lay.n, tree.PageCount(), tree.Height(), absent)
	if !cfg.trace {
		reportServing(&rep, m)
		rep.add("setup_s", "s", median(setups))
		rep.add("heap_mb", "MB", heapMB())
		runtime.KeepAlive(tree)
		return rep, nil
	}
	reportCounters(&rep, counterDelta(before, after))
	rep.add("bench.trace_overhead_frac", "frac", overhead)
	height := tree.Height()
	tree, ws = nil, nil
	runtime.GC() // release the tree before building the probe stacks
	u, err := probeLayers(cfg)
	if err != nil {
		return rep, err
	}
	u.report(&rep)
	keys := make([]uint32, 1<<16)
	rng := newClient(cfg.seed, 99)
	for i := range keys {
		keys[i] = lay.key(rng.below(lay.n))
	}
	visits, _, err := simSearch(bulkEntries(lay.n, lay.key, lay.salt), 1.0, keys)
	if err != nil {
		return rep, err
	}
	rep.detail("lookup.node_visits_per_search", "count", visits)
	parts := []part{
		{"fpbtree facade overhead", 1, u.facadeSearchNs - u.coreSearchNs},
		{"buffer.ReadOpt+ValidateOpt per page", float64(height), u.readOptNs},
		{"latch ReadVersion+Validate per page", float64(height), u.validateNs},
		{"core in-page node search per visit", visits, u.inpageNs},
	}
	rep.lines = append(rep.lines, attribution("lookup search", "ns", m.p50(kSearch), parts)...)
	rep.note("# lookup: node visits are counted on an identically shaped tree in simulation mode, since the serving path does not count them; unit costs come from the probe")
	return rep, writeTrace(cfg, &rep)
}

// The oltp workload: 4M keys bulkloaded at fill 0.8 with 1,023 free
// key values between neighbours, then two clients each run 60% Search,
// 25% Insert, 5% Delete of their own earlier inserts and 10% RangeScan
// of 100 entries. Targets follow Zipf(1.1) over 1,024-key chunks,
// scattered by a seeded permutation so several leaves are hot. Client c
// inserts only keys whose in-gap offset has parity c, so each client's
// view of its own keys is exact and every result stays checkable while
// the other client writes beside it.

const (
	gapBits   = 10 // key = gap<<gapBits | offset; offset 1 is the bulk key
	gapSlots  = (1<<gapBits - 2) / 2
	chunkGaps = 1024
	scanLen   = 100
)

func oltpBulkKey(g int) uint32 { return uint32(g)<<gapBits | 1 }

type oltpShared struct {
	n    int
	salt uint64
	perm []int32 // Zipf rank -> chunk
}

type oltpWorker struct {
	*client
	tree  *fpbtree.Tree
	sh    *oltpShared
	zipf  *rand.Zipf
	wrong uint32

	nextSlot []uint16 // per gap: next unused own slot
	liveIn   []uint16 // per gap: own live keys
	keys     []uint32 // own live keys
	scanBuf  []fpbtree.Entry

	inserts, scanned uint64
	scanNs           int64
}

func newOLTPWorker(cfg config, sh *oltpShared, tree *fpbtree.Tree, id int) *oltpWorker {
	c := newClient(cfg.seed, id)
	chunks := (sh.n + chunkGaps - 1) / chunkGaps
	w := &oltpWorker{
		client: c, tree: tree, sh: sh,
		zipf:     rand.NewZipf(rand.New(rand.NewSource(int64(c.next()))), 1.1, 1, uint64(chunks-1)),
		nextSlot: make([]uint16, sh.n), liveIn: make([]uint16, sh.n),
		scanBuf: make([]fpbtree.Entry, 0, scanLen),
	}
	if cfg.mutate {
		w.wrong = 1
	}
	return w
}

func (w *oltpWorker) base() *client { return w.client }

// hotGap draws a gap: a Zipf-ranked chunk, then a uniform gap in it.
func (w *oltpWorker) hotGap() int {
	g := int(w.sh.perm[w.zipf.Uint64()])*chunkGaps + w.below(chunkGaps)
	if g >= w.sh.n {
		g = w.below(w.sh.n)
	}
	return g
}

func (w *oltpWorker) step() {
	c := w.client
	switch r := c.below(100); {
	case r < 60:
		w.search()
	case r < 85:
		w.insert()
	case r < 90 && len(w.keys) > 0:
		w.delete()
	case r < 90:
		w.insert()
	default:
		w.scan()
	}
}

func (w *oltpWorker) search() {
	c := w.client
	var k uint32
	if len(w.keys) > 0 && c.below(4) == 0 {
		k = w.keys[c.below(len(w.keys))]
	} else {
		k = uint32(w.hotGap())<<gapBits | 1
	}
	t0 := now()
	tid, ok, err := w.tree.Search(k)
	c.done(kSearch, t0)
	c.verify(err == nil && ok && tid == tidOf(w.sh.salt, k)^w.wrong, "search result wrong or missing", k)
}

func (w *oltpWorker) insert() {
	c := w.client
	g := w.hotGap()
	for w.nextSlot[g] >= gapSlots {
		g = c.below(w.sh.n)
	}
	k := uint32(g)<<gapBits | uint32(2+2*int(w.nextSlot[g])+c.id)
	t0 := now()
	err := w.tree.Insert(k, tidOf(w.sh.salt, k))
	c.done(kInsert, t0)
	c.verify(err == nil, "insert failed", k)
	w.nextSlot[g]++
	w.liveIn[g]++
	w.keys = append(w.keys, k)
	w.inserts++
}

func (w *oltpWorker) delete() {
	c := w.client
	j := c.below(len(w.keys))
	k := w.keys[j]
	t0 := now()
	ok, err := w.tree.Delete(k)
	c.done(kDelete, t0)
	c.verify(err == nil && ok, "delete of own live key failed", k)
	w.keys[j] = w.keys[len(w.keys)-1]
	w.keys = w.keys[:len(w.keys)-1]
	w.liveIn[k>>gapBits]--
}

// scan reads scanLen entries from a hot gap's bulk key. The range ends
// at the bulk key scanLen-1 gaps on, so it always holds at least
// scanLen entries and the scan's prefetch window stays inside it.
func (w *oltpWorker) scan() {
	c := w.client
	g0 := min(w.hotGap(), w.sh.n-scanLen)
	start := uint32(g0)<<gapBits | 1
	end := uint32(g0+scanLen-1)<<gapBits | 1
	buf := w.scanBuf[:0]
	t0 := now()
	n, err := w.tree.RangeScan(start, end, func(k fpbtree.Key, tid fpbtree.TupleID) bool {
		buf = append(buf, fpbtree.Entry{Key: k, TID: tid})
		return len(buf) < scanLen
	})
	c.done(kScan, t0)
	w.scanNs += c.last - t0
	w.scanned += uint64(len(buf))
	w.scanBuf = buf
	c.verify(err == nil && n == len(buf) && n == scanLen, "scan count wrong", start)
	c.verify(w.scanConsistent(buf, g0), "scan order or content wrong", start)
}

// scanConsistent checks a scan from gap g0's bulk key against the model:
// strictly ascending keys with correct TIDs, every gap's bulk key in
// order with none skipped, and exactly this client's live keys in every
// gap the scan passed completely.
func (w *oltpWorker) scanConsistent(buf []fpbtree.Entry, g0 int) bool {
	prev := uint32(g0)<<gapBits | 1
	gap, own := g0, 0
	for i, e := range buf {
		if e.TID != tidOf(w.sh.salt, e.Key) || (i > 0 && e.Key <= prev) || (i == 0 && e.Key != prev) {
			return false
		}
		prev = e.Key
		g, off := int(e.Key>>gapBits), int(e.Key&(1<<gapBits-1))
		if g != gap {
			if g != gap+1 || off != 1 || own != int(w.liveIn[gap]) {
				return false
			}
			gap, own = g, 0
		}
		if off > 1 && off&1 == w.id {
			if (off-2)/2 >= int(w.nextSlot[g]) {
				return false
			}
			own++
		}
	}
	return true
}

func runOLTP(cfg config) (report, error) {
	var rep report
	sh := &oltpShared{n: cfg.sz.oltpKeys, salt: mix64(uint64(cfg.seed) ^ 0x6f6c7470)}
	chunks := (sh.n + chunkGaps - 1) / chunkGaps
	sh.perm = make([]int32, chunks)
	for i, p := range rand.New(rand.NewSource(cfg.seed)).Perm(chunks) {
		sh.perm[i] = int32(p)
	}
	entries := bulkEntries(sh.n, oltpBulkKey, sh.salt)
	var tree *fpbtree.Tree
	var ws []worker
	var setups []float64
	for s := 0; s < cfg.sz.setups; s++ {
		tree, ws = nil, nil
		runtime.GC()
		c0 := cpuSeconds()
		var err error
		tree, err = fpbtree.New(fpbtree.WithConcurrency(2))
		if err != nil {
			return rep, err
		}
		if err := tree.Bulkload(entries, 0.8); err != nil {
			return rep, fmt.Errorf("oltp bulkload: %w", err)
		}
		for id := 0; id < 2; id++ {
			ws = append(ws, newOLTPWorker(cfg, sh, tree, id))
		}
		warmup(ws, cfg.sz.warmupOps)
		setups = append(setups, cpuSeconds()-c0)
	}
	runtime.GC() // release the bulkload input before measuring

	var ins0 uint64
	for _, w := range ws {
		ins0 += w.(*oltpWorker).inserts
	}
	pages0 := tree.PageCount()
	before := tree.MetricsSnapshot()
	m, overhead := measure(ws, time.Duration(cfg.seconds*float64(time.Second)), cfg.trace)
	after := tree.MetricsSnapshot()
	checks, failed, firstErr := checked(ws)
	rep.attempted, rep.failed = checks, failed
	if firstErr != "" {
		rep.note("# first failure: %s", firstErr)
	}
	live := uint64(sh.n)
	var ins, scanned uint64
	var scanNs int64
	for _, w := range ws {
		ow := w.(*oltpWorker)
		live += uint64(len(ow.keys))
		ins += ow.inserts
		scanned += ow.scanned
		scanNs += ow.scanNs
	}
	pages := tree.PageCount()
	rep.note("# oltp: %d bulk keys, %d live entries, %d pages, height %d, 2 clients", sh.n, live, pages, tree.Height())
	if !cfg.trace {
		reportServing(&rep, m)
		rep.add("setup_s", "s", median(setups))
		rep.add("heap_mb", "MB", heapMB())
		rep.detail("space_amp", "x", float64(pages)*pageSize/(8*float64(live)))
		runtime.KeepAlive(tree)
		return rep, nil
	}
	reportCounters(&rep, counterDelta(before, after))
	rep.add("bench.trace_overhead_frac", "frac", overhead)
	rep.detail("oltp.pages_per_1k_inserts", "count", float64(pages-pages0)/float64(ins-ins0)*1000)
	rep.detail("oltp.scan_ns_per_entry", "ns", float64(scanNs)/float64(scanned))
	tree, ws = nil, nil
	runtime.GC() // release the tree before building the probe stacks
	u, err := probeLayers(cfg)
	if err != nil {
		return rep, err
	}
	u.report(&rep)
	rep.lines = append(rep.lines, attribution("oltp insert (counts from the probe's single-client core stack)", "ns", m.p50(kInsert), []part{
		{"buffer.Get+Unpin per page pinned", u.getsPerInsert, u.getHitNs},
		{"latch Lock+Unlock per exclusive latch", u.exclPerInsert, u.lockNs},
	})...)
	rep.lines = append(rep.lines, attribution("oltp scan of 100 (pages per scan from the probe's core stack)", "ns", m.p50(kScan), []part{
		{"buffer.Get+Unpin per page pinned", u.getsPerScan, u.getHitNs},
		{"latch Lock+Unlock per page latched", u.getsPerScan, u.lockNs},
	})...)
	return rep, writeTrace(cfg, &rep)
}
