package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// Concurrent insertion for the disk-first fpB+-Tree. With optimistic
// reads on, an insert first tries the leaf-only fast path
// (insertLeafOnly, DESIGN.md §11.7): a latch-free descent, then one
// exclusive latch on the leaf. Everything that path cannot do — a split,
// a separator lowering, a height-1 tree — runs pessimistic
// exclusive-latch crabbing, structurally identical to the bptree
// protocol (see internal/bptree/conc.go and DESIGN.md §11). The safe-
// node rule is conservative: a page with fewer than fanout-leafNodes
// entries can always absorb one more entry (reorganizing its in-page
// tree if needed) and therefore cannot split.

// dfHeld is an exclusively latched ancestor retained by a crabbing
// descent, with the dirtiness it accumulated (separator lowering).
type dfHeld struct {
	pg    buffer.Page
	dirty bool
}

// pageSafe reports whether an insert into this page can never split it.
func (t *DiskFirst) pageSafe(d []byte) bool {
	if t.gappedLeafPage(d) {
		// Gapped leaf nodes refuse direct inserts at the two-thirds
		// split threshold, so the dense bound overstates what this page
		// can absorb: a reorganize spreads the entries evenly over the
		// canonical leaf nodes, and the follow-up insert is guaranteed
		// only while every rebuilt node stays below that threshold.
		return dfEntries(d) < t.leafNodes*(t.leafSplitAt(true)-1)
	}
	return dfEntries(d) < t.fanout-t.leafNodes
}

// insertConc is Insert under the per-page latch protocol. A crabbing
// attempt restarts only when the root it latched is no longer the root.
func (t *DiskFirst) insertConc(k idx.Key, tid idx.TupleID) error {
	if t.optActive() {
		var err error
		if t.runOpt(true, func() buffer.OptStatus {
			var st buffer.OptStatus
			st, err = t.insertLeafOnly(k, tid)
			return st
		}) {
			return err
		}
	}
	var bo latch.Backoff
	for {
		root, height := t.rootHeight()
		if root == 0 {
			if err := t.createRootConc(); err != nil {
				return err
			}
			continue
		}
		ok, err := t.insertAttempt(root, height, k, tid)
		if err != nil || ok {
			return err
		}
		bo.Pause()
	}
}

// createRootConc creates the first (empty leaf) root page; the page is
// invisible until the meta store publishes it.
func (t *DiskFirst) createRootConc() error {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	if root, _ := t.rootHeight(); root != 0 {
		return nil
	}
	pg, err := t.newPageWrite()
	if err != nil {
		return err
	}
	dfSetType(pg.Data, dfPageLeaf)
	if err := t.buildInPage(pg.Data, nil, true); err != nil {
		t.pool.Unpin(pg, true)
		return err
	}
	t.pool.Unpin(pg, true)
	t.firstLeaf.Store(pg.ID)
	t.meta.Store(pg.ID, 0, 1)
	return nil
}

// beforeLeafLatch, when set (tests only), runs in insertLeafOnly
// between the latch-free descent and the leaf's GetX. It is a package
// variable, not a DiskFirst field, because growing DiskFirst past 384
// bytes moves it to an allocation size class that is not cache-line
// aligned, which can put the per-op counters every client writes on a
// line with the fields every lookup reads.
var beforeLeafLatch func(leaf uint32)

// insertLeafOnly is one attempt of the leaf-only insert: find the leaf
// with the latch-free descent, latch it exclusively, re-validate the
// leaf-parent snapshot, and insert in place. Every split X-latches the
// parent before the child and holds it through the cascade, so an
// unchanged parent proves the leaf was neither split nor re-ranged
// between the descent and the latch; on a change the attempt unlatches
// and reports OptRetry. OptMiss sends the insert to crabbing: a pool
// miss above the leaf, a height-1 tree, a separator to lower, or a leaf
// that must split. An error ends the insert (reported with OptOK).
//
// Only the leaf latch is ever held, and only non-blocking validations
// run under it, so this path adds no edge to the latch wait graph.
func (t *DiskFirst) insertLeafOnly(k idx.Key, tid idx.TupleID) (buffer.OptStatus, error) {
	leaf, parent, lowers, st := t.leafOptAttempt(k, false)
	if st != buffer.OptOK {
		return st, nil
	}
	if !parent.Valid() || lowers {
		return buffer.OptMiss, nil
	}
	if beforeLeafLatch != nil {
		beforeLeafLatch(leaf)
	}
	pg, err := t.pool.GetX(leaf)
	if err != nil {
		return buffer.OptOK, err
	}
	if !t.pool.ValidateOpt(parent) {
		t.pool.Unpin(pg, false)
		return buffer.OptRetry, nil
	}
	t.touchHeader(pg)
	ok, err := t.insertOnePage(pg, k, uint32(tid))
	// A failed in-page insert may already have lowered in-page
	// separators, so the page is written back either way.
	t.pool.Unpin(pg, true)
	if err != nil || ok {
		return buffer.OptOK, err
	}
	return buffer.OptMiss, nil
}

// insertOnePage performs the non-splitting insert into an exclusively
// held page: direct in-page insert, else reorganize-and-insert when the
// page is safe. ok=false means the page must split.
func (t *DiskFirst) insertOnePage(pg buffer.Page, k idx.Key, p uint32) (bool, error) {
	if t.inPageInsert(pg, k, p) {
		return true, nil
	}
	if t.pageSafe(pg.Data) {
		if err := t.reorganizePage(pg); err != nil {
			return false, err
		}
		if !t.inPageInsert(pg, k, p) {
			return false, fmt.Errorf("core: insert failed after reorganizing page %d (%d entries)", pg.ID, dfEntries(pg.Data))
		}
		return true, nil
	}
	return false, nil
}

// insertAttempt runs one crabbing descent from the given root
// snapshot. ok=false (with nil error) means the snapshot went stale
// before the root latch landed and the caller should retry.
func (t *DiskFirst) insertAttempt(root uint32, height int, k idx.Key, tid idx.TupleID) (bool, error) {
	pg, err := t.pool.GetX(root)
	if err != nil {
		return false, err
	}
	if r, h := t.rootHeight(); r != root || h != height {
		t.pool.Unpin(pg, false)
		return false, nil
	}

	var held []dfHeld // unsafe ancestors, outermost first
	releaseHeld := func() {
		for i := len(held) - 1; i >= 0; i-- {
			t.pool.Unpin(held[i].pg, held[i].dirty)
		}
		held = held[:0]
	}
	dirty := false
	fail := func(err error) (bool, error) {
		t.pool.Unpin(pg, dirty)
		releaseHeld()
		return false, err
	}

	// Crab down: latch the child, then drop every held ancestor once
	// the child cannot split.
	for lvl := height - 1; lvl > 0; lvl-- {
		t.touchHeader(pg)
		child, lowered := t.childForInsert(pg, k)
		dirty = dirty || lowered
		cpg, err := t.pool.GetX(child)
		if err != nil {
			return fail(err)
		}
		if t.pageSafe(cpg.Data) {
			t.pool.Unpin(pg, dirty)
			releaseHeld()
		} else {
			held = append(held, dfHeld{pg, dirty})
		}
		pg, dirty = cpg, false
	}

	// Leaf insert.
	t.touchHeader(pg)
	if ok, err := t.insertOnePage(pg, k, uint32(tid)); err != nil {
		dirty = true
		return fail(err)
	} else if ok {
		t.pool.Unpin(pg, true)
		releaseHeld()
		return true, nil
	}

	// Split cascade through the held ancestor chain.
	insKey, insPtr := k, uint32(tid)
	for {
		sep, newPID, err := t.splitPage(pg)
		if err != nil {
			dirty = true
			return fail(err)
		}
		target := pg
		var np buffer.Page
		if insKey >= sep {
			// The new right page is unreachable while pg's latch is
			// held, so this re-latch cannot block on another writer.
			np, err = t.pool.GetX(newPID)
			if err != nil {
				dirty = true
				return fail(err)
			}
			target = np
		}
		if !t.inPageInsert(target, insKey, insPtr) {
			if np.Valid() {
				t.pool.Unpin(np, true)
			}
			dirty = true
			return fail(fmt.Errorf("core: insert failed after splitting page %d", pg.ID))
		}
		if np.Valid() {
			t.pool.Unpin(np, true)
		}

		if len(held) == 0 {
			// pg is the root (its latch was held since the snapshot
			// check). Grow while holding it.
			oldMin := t.pageMinKey(pg.Data)
			rootPg, err := t.newPageWrite()
			if err != nil {
				dirty = true
				return fail(err)
			}
			dfSetType(rootPg.Data, dfPageNonleaf)
			dfSetLevel(rootPg.Data, byte(height))
			if err := t.buildInPage(rootPg.Data, []pair{{oldMin, pg.ID}, {sep, newPID}}, false); err != nil {
				t.pool.Unpin(rootPg, true)
				dirty = true
				return fail(err)
			}
			t.pool.Unpin(rootPg, true)
			t.meta.Store(rootPg.ID, 0, height+1)
			t.pool.Unpin(pg, true)
			return true, nil
		}

		// Release the split page before working on its parent so no
		// lower-level latch is held while the parent's split latches a
		// same-level sibling.
		t.pool.Unpin(pg, true)
		top := held[len(held)-1]
		held = held[:len(held)-1]
		pg, dirty = top.pg, top.dirty
		insKey, insPtr = sep, newPID
		t.touchHeader(pg)
		if ok, err := t.insertOnePage(pg, insKey, insPtr); err != nil {
			dirty = true
			return fail(err)
		} else if ok {
			t.pool.Unpin(pg, true)
			releaseHeld()
			return true, nil
		}
		// The popped ancestor must itself split: loop.
	}
}
