package core

// Optimistic (latch-free) point-lookup descent for the disk-first
// variant, per DESIGN.md §11.6. The descent takes no latches and no
// pins: each page is resolved with buffer.ReadOpt and searched with
// plain loads, every in-page node's lines fetched together by
// prefetchNode first, as the visit helpers do on the latched path. It
// skips those helpers themselves: their simulator charges are frozen
// in serving mode, and their node-visit stats would be the only atomic
// stores left on the path. Everything derived from the page's
// bytes — the child page ID, the in-page next-node offset, the
// page-level next pointer, the tuple ID — is re-validated with
// buffer.ValidateOpt before it is trusted or followed. Any validation
// failure or write-locked observation restarts the whole descent from
// the (atomic) root triple; after optMaxRestarts restarts the reader
// falls back to the shared-latch path so writer storms cannot livelock
// it. A non-resident page is not interference: the descent falls back
// at once and the latched path pays the I/O.
//
// The same validated descent locates leaf pages for writers (leafOpt,
// DESIGN.md §11.7): inserts latch only the leaf it finds, deletes and
// scan starts take its page ID in place of a latch-coupled descent.

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// optMaxRestarts bounds how many times an optimistic descent restarts
// before falling back to the latched path (shared by all variants).
const optMaxRestarts = 8

// optActive reports whether the latch-free paths run: optimistic reads
// were requested on a latched pool, and the simulators are frozen (the
// optimistic descents charge nothing).
func (t *DiskFirst) optActive() bool { return t.opt && t.mm.Concurrent() }

// searchOpt runs the optimistic point lookup. handled=false means the
// optimistic path is unavailable, met a non-resident page, or gave up
// (restart budget exhausted), and the caller must run the latched
// descent.
func (t *DiskFirst) searchOpt(k idx.Key) (tid idx.TupleID, found, handled bool) {
	if !t.optActive() {
		return 0, false, false
	}
	lt := t.pool.Latches()
	var b latch.Backoff
	for attempt := 0; attempt <= optMaxRestarts; attempt++ {
		if attempt > 0 {
			lt.OptRestart()
			b.Pause()
		}
		tid, found, st := t.searchOptAttempt(k)
		if st == buffer.OptOK {
			return tid, found, true
		}
		if st == buffer.OptMiss {
			// A non-resident page is not interference: restarting
			// cannot fault it in, so the latched path pays the I/O now.
			return 0, false, false
		}
	}
	lt.OptFallback()
	return 0, false, false
}

// searchOptAttempt is one latch-free descent attempt. OptRetry means
// the attempt observed interference and may be retried, OptMiss that it
// met a non-resident page; the results are only meaningful on OptOK.
func (t *DiskFirst) searchOptAttempt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
	// A torn read can yield wild in-page offsets before validation gets
	// to reject them; convert the resulting bounds panic into a restart.
	defer func() {
		if recover() != nil {
			tid, found, st = 0, false, buffer.OptRetry
		}
	}()
	root, height := t.rootHeight()
	if root == 0 {
		return 0, false, buffer.OptOK
	}
	pid := root
	for lvl := height - 1; lvl > 0; lvl-- {
		pg, rs := t.pool.ReadOptStatus(pid)
		if rs != buffer.OptOK {
			return 0, false, rs
		}
		child, _ := t.inPageChildForOpt(pg.Data, k, true)
		// Validate before following child: an unvalidated pointer may
		// come from a torn read or a mid-restructure page image.
		if !t.pool.ValidateOpt(pg) || child == 0 {
			return 0, false, buffer.OptRetry
		}
		pid = child
	}
	first := true
	for pid != 0 {
		pg, rs := t.pool.ReadOptStatus(pid)
		if rs != buffer.OptOK {
			return 0, false, rs
		}
		d := pg.Data
		if dfEntries(d) == 0 {
			// Lazy deletion can leave empty pages; hop them, validating
			// the next pointer before it is followed.
			next := dfNextPage(d)
			if !t.pool.ValidateOpt(pg) {
				return 0, false, buffer.OptRetry
			}
			pid = next
			first = false
			continue
		}
		var off int
		if first {
			off = t.descendInPageOpt(d, k, true)
			first = false
		} else {
			off = dfFirstLeaf(d)
		}
		// The in-page hop count is bounded by the page's line count: a
		// torn next-offset chain could otherwise cycle, and unlike a
		// wild offset a cycle never faults into the recover above.
		for hops := 0; off != 0 && hops < t.pageLines; hops++ {
			prefetchNode(d, off, t.x)
			slot, _ := t.searchLeafNode(buffer.Page{Data: d}, off, k, true)
			slot = t.lNextOccupied(d, off, slot+1)
			if slot >= 0 {
				key := t.lKey(d, off, slot)
				tid := t.lPtr(d, off, slot)
				if !t.pool.ValidateOpt(pg) {
					return 0, false, buffer.OptRetry
				}
				return tid, key == k, buffer.OptOK
			}
			off = t.lNext(d, off)
		}
		next := dfNextPage(d)
		if !t.pool.ValidateOpt(pg) {
			return 0, false, buffer.OptRetry
		}
		pid = next
	}
	return 0, false, buffer.OptOK
}

// descendInPageOpt is descendInPage minus the node-visit charges and
// stats: the charge entry points are frozen no-ops in serving mode and
// the NodeVisits counter would be an atomic store on the latch-free
// path. It keeps the CPU-side node prefetch. The data passed in is an
// unvalidated optimistic snapshot, which prefetchNode's bounds guard
// tolerates.
func (t *DiskFirst) descendInPageOpt(d []byte, k idx.Key, lt bool) int {
	pg := buffer.Page{Data: d}
	off := dfRoot(d)
	for lvl := dfInLevels(d); lvl > 1; lvl-- {
		prefetchNode(d, off, t.w)
		slot := t.searchNonleaf(pg, off, k, lt)
		if slot < 0 {
			slot = 0
		}
		off = t.nChild(d, off, slot)
	}
	return off
}

// inPageChildForOpt is inPageChildFor over an unvalidated optimistic
// snapshot (no charges, no visit stats). For an insert descent (!lt)
// it also reports whether childForInsert would lower the page's
// minimum separator to k, a write the latch-free path cannot make.
func (t *DiskFirst) inPageChildForOpt(d []byte, k idx.Key, lt bool) (child uint32, lowers bool) {
	off := t.descendInPageOpt(d, k, lt)
	prefetchNode(d, off, t.x)
	slot, _ := t.searchLeafNode(buffer.Page{Data: d}, off, k, lt)
	if slot < 0 {
		slot = 0
		lowers = !lt && t.lCount(d, off) > 0 && t.lKey(d, off, 0) > k
	}
	return t.lPtr(d, off, slot), lowers
}

// runOpt drives one optimistic operation: it repeats attempt through
// latch.Backoff while attempt reports OptRetry, for at most
// optMaxRestarts restarts, and reports whether an attempt completed.
// OptMiss ends the loop at once (fall back now). Restarts and
// fallbacks go to the writer counters when write is set; a reader
// counts only budget exhaustion as a fallback, since its OptMiss is a
// pool miss, while every writer fallback to crabbing is counted.
func (t *DiskFirst) runOpt(write bool, attempt func() buffer.OptStatus) bool {
	lt := t.pool.Latches()
	var b latch.Backoff
	for n := 0; n <= optMaxRestarts; n++ {
		if n > 0 {
			if write {
				lt.OptWriteRestart()
			} else {
				lt.OptRestart()
			}
			b.Pause()
		}
		switch attempt() {
		case buffer.OptOK:
			return true
		case buffer.OptMiss:
			if write {
				lt.OptWriteFallback()
			}
			return false
		}
	}
	if write {
		lt.OptWriteFallback()
	} else {
		lt.OptFallback()
	}
	return false
}

// leafOpt finds the leaf page for k with the latch-free descent
// (leafOptAttempt) under the restart budget. ok=false means the caller
// must run the latched descent instead. The returned page ID is
// unpinned, exactly like leafPageForCoupled's: a split that lands
// after the descent moves keys rightward, and callers walk right.
func (t *DiskFirst) leafOpt(k idx.Key, lt, write bool) (pid uint32, ok bool) {
	ok = t.runOpt(write, func() buffer.OptStatus {
		var st buffer.OptStatus
		pid, _, _, st = t.leafOptAttempt(k, lt)
		return st
	})
	return pid, ok && pid != 0
}

// leafOptAttempt is one latch-free descent from the current root to
// the leaf page for k (lt: strictly-less descent, as for lookups and
// scan starts; !lt: the insert descent of childForInsert). It returns
// the leaf's page ID and the leaf-parent snapshot, still valid at
// return, plus whether an insert of k would lower a separator. A tree
// of height 1 returns its root and a zero parent.
//
// The descent is coupled: a child's version is sampled before its
// parent is validated, so every snapshot dates from a moment when its
// parent still routed k to it. A page's key range changes only while
// that page is exclusively latched (its own split or separator
// lowering), so an unchanged leaf-parent proves the leaf still covers
// k. The root gets the same treatment from the meta word: a root that
// split before its version was sampled has already been replaced there.
func (t *DiskFirst) leafOptAttempt(k idx.Key, lt bool) (leaf uint32, parent buffer.OptPage, lowers bool, st buffer.OptStatus) {
	defer func() {
		if recover() != nil {
			leaf, parent, lowers, st = 0, buffer.OptPage{}, false, buffer.OptRetry
		}
	}()
	root, height := t.rootHeight()
	if height <= 1 {
		return root, buffer.OptPage{}, false, buffer.OptOK
	}
	pg, st := t.pool.ReadOptStatus(root)
	if st != buffer.OptOK {
		return 0, buffer.OptPage{}, false, st
	}
	if r, h := t.rootHeight(); r != root || h != height {
		return 0, buffer.OptPage{}, false, buffer.OptRetry
	}
	for lvl := height - 1; ; lvl-- {
		child, low := t.inPageChildForOpt(pg.Data, k, lt)
		lowers = lowers || low
		if lvl == 1 {
			if !t.pool.ValidateOpt(pg) || child == 0 {
				return 0, buffer.OptPage{}, false, buffer.OptRetry
			}
			return child, pg, lowers, buffer.OptOK
		}
		// A wild child ID from a torn read resolves to OptMiss or
		// OptRetry without touching its latch word; the validation
		// below rejects the attempt before either is believed.
		cpg, cst := t.pool.ReadOptStatus(child)
		if !t.pool.ValidateOpt(pg) {
			return 0, buffer.OptPage{}, false, buffer.OptRetry
		}
		if cst != buffer.OptOK {
			return 0, buffer.OptPage{}, false, cst
		}
		pg = cpg
	}
}
