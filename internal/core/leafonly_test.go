package core

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// servingDiskFirst builds a serving-mode disk-first tree (latched pool,
// frozen simulators, optimistic reads) over keys 10, 20, 30, ... at the
// given fill, skipping the test when the build cannot run the
// latch-free paths (race detector).
func servingDiskFirst(t *testing.T, n int, fill float64) (*DiskFirst, *buffer.Pool) {
	t.Helper()
	mm := memsim.NewDefault()
	pool := buffer.NewConcurrentPool(buffer.NewMemStore(4<<10), 1024, 4)
	pool.AttachModel(mm)
	mm.SetConcurrent(true)
	if !pool.OptSupported() {
		t.Skip("optimistic paths unsupported (race detector build)")
	}
	tr, err := NewDiskFirst(DiskFirstConfig{Pool: pool, Model: mm, EnableJPA: true, OptimisticReads: true})
	if err != nil {
		t.Fatal(err)
	}
	es := make([]idx.Entry, n)
	for i := range es {
		k := idx.Key(10 * (i + 1))
		es[i] = idx.Entry{Key: k, TID: idx.TupleID(k + 7)}
	}
	if err := tr.Bulkload(es, fill); err != nil {
		t.Fatal(err)
	}
	return tr, pool
}

// leafPages returns the leaf chain's page IDs with each page's keys.
func leafPages(t *testing.T, tr *DiskFirst) ([]uint32, [][]idx.Key) {
	t.Helper()
	var pids []uint32
	var keys [][]idx.Key
	for pid := tr.firstLeaf.Load(); pid != 0; {
		pg, err := tr.pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		var ks []idx.Key
		for _, e := range tr.collectEntries(pg.Data) {
			ks = append(ks, e.key)
		}
		next := dfNextPage(pg.Data)
		tr.pool.Unpin(pg, false)
		pids, keys = append(pids, pid), append(keys, ks)
		pid = next
	}
	return pids, keys
}

// TestLeafOnlyInsertRestartsAcrossSplit pins down the leaf-only
// insert's soundness argument deterministically: the test hook splits
// the target leaf after the latch-free descent has chosen it but before
// its exclusive latch lands. The key belongs above the split point, so
// the chosen leaf no longer covers it; the post-GetX re-validation of
// the leaf-parent snapshot must notice (the split X-latched the parent)
// and restart the insert, which then lands in the new right page.
//
// Mutation check: deleting the ValidateOpt(parent) call after GetX in
// insertLeafOnly makes this test fail — the insert then reports no
// restart and writes the key into the left page, which the invariant
// checker rejects as a separator-bound violation.
func TestLeafOnlyInsertRestartsAcrossSplit(t *testing.T) {
	tr, pool := servingDiskFirst(t, 3000, 0.6)
	if h := tr.Height(); h < 2 {
		t.Fatalf("height %d, want >= 2", h)
	}
	pids, keys := leafPages(t, tr)
	if len(pids) < 3 {
		t.Fatalf("%d leaf pages, want >= 3", len(pids))
	}
	target := pids[1]
	lo, hi := keys[1][0], keys[1][len(keys[1])-1]
	k := hi + 5 // above the leaf's max, below the next leaf's min

	hookRan := false
	defer func() { beforeLeafLatch = nil }()
	beforeLeafLatch = func(leaf uint32) {
		beforeLeafLatch = nil // the hook's own inserts run unhooked
		hookRan = true
		if leaf != target {
			t.Errorf("descent chose leaf %d, want %d", leaf, target)
			return
		}
		// Fill the leaf from its low end until it splits.
		before := tr.PageCount()
		for j := lo + 1; tr.PageCount() == before; j++ {
			if j%10 == 0 {
				continue
			}
			if j >= hi {
				t.Errorf("leaf %d never split", leaf)
				return
			}
			if err := tr.Insert(j, idx.TupleID(j+7)); err != nil {
				t.Errorf("hook Insert(%d): %v", j, err)
				return
			}
		}
	}
	lt := pool.Latches()
	restarts0, w0 := lt.OptRestarts(), lt.OptWriteRestarts()
	if err := tr.Insert(k, idx.TupleID(k+7)); err != nil {
		t.Fatal(err)
	}
	if !hookRan {
		t.Fatal("the leaf-only insert path never ran the hook")
	}
	if got := lt.OptWriteRestarts() - w0; got != 1 {
		t.Errorf("insert restarted %d times, want exactly 1 (the split invalidated the parent)", got)
	}
	if got := lt.OptRestarts() - restarts0; got != 0 {
		t.Errorf("writer restart charged %d reader restarts", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if tid, ok, err := tr.Search(k); err != nil || !ok || tid != idx.TupleID(k+7) {
		t.Fatalf("Search(%d) = (%d,%v,%v), want (%d,true,nil)", k, tid, ok, err, k+7)
	}
	// The key must sit in the page right of the split leaf.
	pids, keys = leafPages(t, tr)
	for i, ks := range keys {
		for _, kk := range ks {
			if kk == k && (i == 0 || pids[i-1] != target) {
				t.Fatalf("key %d landed in page %d, want the right sibling of split leaf %d", k, pids[i], target)
			}
		}
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pinned pages leaked", n)
	}
}
