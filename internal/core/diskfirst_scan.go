package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index. With JPA enabled (§3.3):
//
//   - I/O granularity: the in-page leaf nodes of leaf-parent pages form
//     a jump-pointer array over the leaf pages (sibling links within a
//     page are node offsets; across pages they live in page headers).
//     The scan locates the range's end page first so prefetching never
//     overshoots, then keeps PrefetchWindow leaf pages in flight.
//
//   - Cache granularity: on entering a leaf page the scan prefetches
//     the page's in-page nodes (the used line region), so consuming
//     entries proceeds at pipelined- rather than full-miss latency.
func (t *DiskFirst) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	root, height := t.rootHeight()
	if root == 0 || startKey > endKey {
		return 0, nil
	}
	startLeaf, err := t.leafPageFor(root, height, startKey, true)
	if err != nil {
		return 0, err
	}
	var pids []uint32
	if t.jpa && height > 1 {
		endLeaf, err := t.leafPageFor(root, height, endKey, false)
		if err != nil {
			return 0, err
		}
		if pids, err = t.leafPagesBetween(root, height, startKey, startLeaf, endLeaf); err != nil {
			return 0, err
		}
	}

	count := 0
	pfNext, pageIdx := 0, 0
	pid := startLeaf
	first := true
	for pid != 0 {
		if t.jpa {
			for pfNext < len(pids) && pfNext <= pageIdx+t.pfWindow {
				if err := t.pool.Prefetch(pids[pfNext]); err != nil {
					return count, err
				}
				pfNext++
			}
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			return count, err
		}
		t.touchHeader(pg)
		d := pg.Data
		if t.jpa {
			// Cache-granularity prefetch of the page's node region.
			t.mm.Prefetch(pg.Addr+lineSize, (dfNextFree(d)-1)*lineSize)
		}
		off := dfFirstLeaf(d)
		i := 0
		if first {
			off = t.descendInPage(pg, startKey, true, nil)
			t.visitLeaf(pg, off)
			slot, _ := t.searchLeafNode(pg, off, startKey, true)
			i = slot + 1
			first = false
		}
		for off != 0 {
			if !t.jpa {
				t.visitLeaf(pg, off)
			} else {
				t.mm.Access(pg.Addr+uint64(nodeBase(off)), dfLeafHdr)
				t.mm.Busy(memsim.CostNodeVisit)
			}
			gapped := t.gappedLeafPage(d)
			cnt := t.lSlots(d, off)
			for ; i < cnt; i++ {
				// Gap slots hold the sentinel (the max key); skip them
				// before the end-of-range check or they would falsely
				// terminate the scan.
				if gapped && t.lKey(d, off, i) == gapSentinel {
					continue
				}
				t.mm.Access(pg.Addr+uint64(t.lKeyPos(off, i)), 4)
				k := t.lKey(d, off, i)
				if k > endKey {
					t.pool.Unpin(pg, false)
					return count, nil
				}
				if k < startKey {
					continue
				}
				t.mm.Access(pg.Addr+uint64(t.lPtrPos(off, i)), 4)
				t.mm.Busy(memsim.CostEntryVisit)
				tid := t.lPtr(d, off, i)
				count++
				if fn != nil && !fn(k, tid) {
					t.pool.Unpin(pg, false)
					return count, nil
				}
			}
			off = t.lNext(d, off)
			i = 0
		}
		next := dfNextPage(d)
		t.pool.Unpin(pg, false)
		pid = next
		pageIdx++
	}
	return count, nil
}

// leafPageFor descends from the given (root, height) snapshot to the
// leaf page for k (lt: strictly-less descent for scan starts). With
// optimistic reads it takes the latch-free descent from the current
// root (leafOpt); otherwise, or when that gives up, leafPageForLatched.
func (t *DiskFirst) leafPageFor(root uint32, height int, k idx.Key, lt bool) (uint32, error) {
	if t.optActive() {
		if pid, ok := t.leafOpt(k, lt, false); ok {
			return pid, nil
		}
	}
	return t.leafPageForLatched(root, height, k, lt)
}

// leafPageForLatched is leafPageFor without the latch-free descent. In
// concurrent mode it latch-couples: the parent's shared latch is held
// until the child page is pinned, strictly top-down.
func (t *DiskFirst) leafPageForLatched(root uint32, height int, k idx.Key, lt bool) (uint32, error) {
	if t.conc {
		return t.leafPageForCoupled(root, height, k, lt)
	}
	pid := root
	for lvl := height - 1; lvl > 0; lvl-- {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return 0, err
		}
		t.touchHeader(pg)
		child := t.inPageChildFor(pg, k, lt)
		t.pool.Unpin(pg, false)
		if child == 0 {
			return 0, fmt.Errorf("core: nil child during descent")
		}
		pid = child
	}
	return pid, nil
}

// leafPageForCoupled is leafPageFor under the latch protocol: each
// child is pinned before the parent's latch drops, so the child
// pointer just read cannot be restructured away mid-descent.
func (t *DiskFirst) leafPageForCoupled(root uint32, height int, k idx.Key, lt bool) (uint32, error) {
	pid := root
	var parent buffer.Page
	for lvl := height - 1; lvl > 0; lvl-- {
		pg, err := t.pool.Get(pid)
		if parent.Valid() {
			t.pool.Unpin(parent, false)
			parent = buffer.Page{}
		}
		if err != nil {
			return 0, err
		}
		t.touchHeader(pg)
		pid = t.inPageChildFor(pg, k, lt)
		if pid == 0 {
			t.pool.Unpin(pg, false)
			return 0, fmt.Errorf("core: nil child during descent")
		}
		parent = pg
	}
	if parent.Valid() {
		t.pool.Unpin(parent, false)
	}
	return pid, nil
}

// leafPagesBetween collects leaf page IDs from startLeaf through
// endLeaf by walking the in-page leaf-node chains of the leaf-parent
// pages (the I/O jump-pointer array).
func (t *DiskFirst) leafPagesBetween(root uint32, height int, startKey idx.Key, startLeaf, endLeaf uint32) ([]uint32, error) {
	pid := root
	for lvl := height - 1; lvl > 1; lvl-- {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		t.touchHeader(pg)
		child := t.inPageChildFor(pg, startKey, true)
		t.pool.Unpin(pg, false)
		pid = child
	}
	var pids []uint32
	started := false
	// Serving mode starts the walk at the start key's in-page leaf node,
	// the node inPageChildFor found startLeaf in: the nodes before it
	// point only at pages left of the range. Simulation mode walks from
	// the page's first node, keeping its charge sequence.
	skip := t.conc
	for pid != 0 {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		d := pg.Data
		t.touchHeader(pg)
		off := dfFirstLeaf(d)
		if skip {
			off = t.descendInPageOpt(d, startKey, true)
			skip = false
		}
		for ; off != 0; off = t.lNext(d, off) {
			t.mm.Access(pg.Addr+uint64(nodeBase(off)), dfLeafHdr)
			cnt := t.lCount(d, off)
			for i := 0; i < cnt; i++ {
				child := t.lPtr(d, off, i)
				if child == startLeaf {
					started = true
				}
				if started {
					t.mm.Access(pg.Addr+uint64(t.lPtrPos(off, i)), 4)
					pids = append(pids, child)
					if child == endLeaf {
						if t.overshoot {
							// Ablation: keep collecting a full window
							// past the end page.
							overshootLeft := t.pfWindow
							for j := i + 1; j < cnt && overshootLeft > 0; j++ {
								pids = append(pids, t.lPtr(d, off, j))
								overshootLeft--
							}
						}
						t.pool.Unpin(pg, false)
						return pids, nil
					}
				}
			}
		}
		next := dfJPNext(d)
		t.pool.Unpin(pg, false)
		pid = next
	}
	return pids, nil
}

// PageCount implements idx.Index.
func (t *DiskFirst) PageCount() int {
	root, height := t.rootHeight()
	if root == 0 {
		return 0
	}
	total := 0
	pid := root
	for lvl := height - 1; lvl >= 0; lvl-- {
		var childFirst uint32
		cur := pid
		for cur != 0 {
			pg, err := t.pool.Get(cur)
			if err != nil {
				return -1
			}
			if lvl > 0 && childFirst == 0 {
				childFirst = t.pageFirstChild(pg.Data)
			}
			next := dfNextPage(pg.Data)
			t.pool.Unpin(pg, false)
			total++
			cur = next
		}
		pid = childFirst
	}
	return total
}

func (t *DiskFirst) pageFirstChild(d []byte) uint32 {
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		if t.lCount(d, off) > 0 {
			return t.lPtr(d, off, 0)
		}
	}
	return 0
}
