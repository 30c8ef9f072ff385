package core

// Optimistic (latch-free) point-lookup descent for the cache-first
// variant. This composes BOTH validation mechanisms (DESIGN.md §11.6):
// the relocation epoch — sampled even before the descent and re-checked
// at every page transition, exactly like the one-latch protocol it
// replaces — and per-page latch versions, which replace the shared
// latch itself: each page is resolved with buffer.ReadOpt, searched
// with plain loads (each node's lines fetched together first by
// prefetchNode), and validated with buffer.ValidateOpt before any
// ⟨pid, off⟩ pointer or tuple ID derived from its bytes is trusted.
// The epoch catches cross-page node relocations as a unit; the page
// version catches the individual in-place edits. Restarts are bounded;
// the one-latch findFirstConc path remains the fallback.

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// searchOpt runs the optimistic point lookup. handled=false means the
// optimistic path is unavailable, met a non-resident page, or exhausted
// its restart budget, and the caller must run the latched descent.
func (t *CacheFirst) searchOpt(k idx.Key) (tid idx.TupleID, found, handled bool) {
	if !t.opt || !t.mm.Concurrent() {
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

// searchOptAttempt is one latch-free descent attempt; results are only
// meaningful when st is OptOK.
func (t *CacheFirst) searchOptAttempt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
	// A torn read can yield wild node offsets before validation gets to
	// reject them; convert the resulting bounds panic into a restart.
	defer func() {
		if recover() != nil {
			tid, found, st = 0, false, buffer.OptRetry
		}
	}()
	e := t.reloc.Load()
	if e&1 != 0 {
		// A relocation is in flight; let the restart loop back off.
		return 0, false, buffer.OptRetry
	}
	root, height := t.rootPtrHeight()
	if root.isNil() {
		return 0, false, buffer.OptOK
	}
	pg, rs := t.readOptPage(root.pid, e)
	if rs != buffer.OptOK {
		return 0, false, rs
	}
	cur := root
	for lvl := height - 1; lvl > 0; lvl-- {
		prefetchNode(pg.Data, cur.off, t.s)
		slot, _ := t.searchNode(buffer.Page{Data: pg.Data}, cur.off, k, true)
		if slot < 0 {
			slot = 0
		}
		child := t.cChild(pg.Data, cur.off, slot)
		// Validate before following the ⟨pid, off⟩ pair anywhere — even
		// within the same page, a torn read could fabricate the offset.
		if !t.pool.ValidateOpt(pg) || child.isNil() {
			return 0, false, buffer.OptRetry
		}
		if child.pid != pg.ID {
			if pg, rs = t.readOptPage(child.pid, e); rs != buffer.OptOK {
				return 0, false, rs
			}
		}
		cur = child
	}
	if cur.isNil() {
		return 0, false, buffer.OptOK
	}
	// Forward walk over the leaf-node chain for the first entry == k.
	// The per-page hop bound mirrors the disk-first walk: a torn chain
	// could cycle without ever faulting into the recover above.
	hops := 0
	for !cur.isNil() {
		if cur.pid != pg.ID {
			if pg, rs = t.readOptPage(cur.pid, e); rs != buffer.OptOK {
				return 0, false, rs
			}
			hops = 0
		} else if hops++; hops > t.pageLines {
			return 0, false, buffer.OptRetry
		}
		prefetchNode(pg.Data, cur.off, t.s)
		slot, _ := t.searchNode(buffer.Page{Data: pg.Data}, cur.off, k, true)
		slot = t.cNextOccupied(pg.Data, cur.off, slot+1)
		if slot >= 0 {
			key := t.cKey(pg.Data, cur.off, slot)
			tid := t.cTid(pg.Data, cur.off, slot)
			if !t.pool.ValidateOpt(pg) {
				return 0, false, buffer.OptRetry
			}
			return tid, key == k, buffer.OptOK
		}
		next := t.cNextLeaf(pg.Data, cur.off)
		if !t.pool.ValidateOpt(pg) {
			return 0, false, buffer.OptRetry
		}
		cur = next
	}
	return 0, false, buffer.OptOK
}

// readOptPage resolves pid optimistically and re-checks the relocation
// epoch after the snapshot, mirroring the latched protocol's check
// after every cross-page pin.
func (t *CacheFirst) readOptPage(pid uint32, e uint64) (buffer.OptPage, buffer.OptStatus) {
	pg, st := t.pool.ReadOptStatus(pid)
	if st == buffer.OptOK && t.reloc.Load() != e {
		st = buffer.OptRetry
	}
	return pg, st
}
