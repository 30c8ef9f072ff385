package fpbtree

import (
	"fmt"
	"sync"
	"testing"
)

// optimisticMatrixCell is one conformance configuration: variant ×
// leaf layout × read protocol.
type optimisticMatrixCell struct {
	variant Variant
	gapped  bool
	pess    bool
}

func (c optimisticMatrixCell) name() string {
	n := c.variant.String()
	if c.gapped {
		n += "/gapped"
	}
	if c.pess {
		n += "/pessimistic"
	} else {
		n += "/optimistic"
	}
	return n
}

// TestOptimisticConformanceMatrix runs the mixed reader/crabbing-writer
// stress over every variant with the optimistic read path requested
// (the serving-mode default) — including the gapped leaf layout where
// supported — plus one pessimistic control cell, and checks the final
// tree differentially against the exact reference model with zero pin
// leaks. Under -race the optimistic path disables itself (seqlock reads
// are intentional data races), so this matrix then verifies that the
// option wiring degrades to the latched path without behavior change.
func TestOptimisticConformanceMatrix(t *testing.T) {
	cells := []optimisticMatrixCell{
		{DiskFirst, false, false},
		{DiskFirst, true, false},
		{CacheFirst, false, false},
		{CacheFirst, true, false},
		{DiskOptimized, false, false},
		{MicroIndex, false, false},
		{DiskFirst, false, true}, // pessimistic control
	}
	for _, c := range cells {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			opts := []Option{
				WithVariant(c.variant),
				WithConcurrency(4),
				WithPageSize(4 << 10),
				WithBufferPages(512),
				WithOptimisticReads(),
			}
			if c.gapped {
				opts = append(opts, WithGappedLeaves())
			}
			if c.pess {
				opts = append(opts, WithPessimisticReads())
			}
			runOptimisticStress(t, opts)
		})
	}
}

// runOptimisticStress drives 2 readers (point searches, plus a range
// scan every 16th op checked for order and for every bulkloaded key in
// range) and 2 writers (inserting their own disjoint even keys, then
// deleting every other one) over a bulkloaded tree built with opts,
// then checks pin leaks, structural invariants, and the exact
// key/tuple differential.
func runOptimisticStress(t *testing.T, opts []Option) {
	const (
		oddKeys      = 2500 // bulkloaded: 1, 3, 5, ...
		insPerWriter = stressInsPerWriter
		scanSpan     = 300
	)
	tr, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, oddKeys)
	for i := range entries {
		k := Key(2*i + 1)
		entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
	}
	if err := tr.Bulkload(entries, 0.8); err != nil {
		t.Fatal(err)
	}
	maxKey := Key(2 * oddKeys)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint32(1000*w + 17)
			for n := 0; n < 5000; n++ {
				x = x*1664525 + 1013904223
				k := Key(x % uint32(maxKey+10))
				if n%16 == 0 {
					if err := checkStressScan(tr, k, k+scanSpan, maxKey); err != nil {
						errs <- fmt.Errorf("reader %d: %v", w, err)
						return
					}
					continue
				}
				tid, ok, err := tr.Search(k)
				if err != nil {
					errs <- fmt.Errorf("reader %d: Search(%d): %v", w, k, err)
					return
				}
				if k%2 == 1 && k < maxKey {
					if !ok || tid != TupleID(k+7) {
						errs <- fmt.Errorf("reader %d: Search(%d) = (%d,%v), want (%d,true)", w, k, tid, ok, k+7)
						return
					}
				} else if ok && tid != TupleID(k+7) {
					// Evens appear as writers land them, but a present
					// tuple must never be torn.
					errs <- fmt.Errorf("reader %d: Search(%d) saw wrong tuple %d", w, k, tid)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < insPerWriter; n++ {
				k := writerKey(w, n)
				if err := tr.Insert(k, TupleID(k+7)); err != nil {
					errs <- fmt.Errorf("writer %d: Insert(%d): %v", w, k, err)
					return
				}
			}
			for n := 0; n < insPerWriter; n += 2 {
				k := writerKey(w, n)
				if ok, err := tr.Delete(k); err != nil || !ok {
					errs <- fmt.Errorf("writer %d: Delete(%d) = (%v, %v), want (true, nil)", w, k, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := tr.PinnedPages(); n != 0 {
		t.Fatalf("%d pinned pages leaked", n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	want := make(map[Key]TupleID, oddKeys+2*insPerWriter)
	for i := 0; i < oddKeys; i++ {
		k := Key(2*i + 1)
		want[k] = TupleID(k + 7)
	}
	for w := 0; w < 2; w++ {
		for n := 1; n < insPerWriter; n += 2 { // the even n were deleted
			k := writerKey(w, n)
			want[k] = TupleID(k + 7)
		}
	}
	got := make(map[Key]TupleID, len(want))
	if _, err := tr.RangeScan(0, ^Key(0), func(k Key, tid TupleID) bool {
		got[k] = tid
		return true
	}); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("tree has %d entries, reference has %d", len(got), len(want))
	}
	for k, tid := range want {
		if got[k] != tid {
			t.Fatalf("key %d: tree has %d, reference has %d", k, got[k], tid)
		}
	}
}

// stressInsPerWriter is how many keys each stress writer inserts.
const stressInsPerWriter = 1000

// writerKey is stress writer w's n-th key: disjoint even keys per
// writer (≡ 2w mod 4), with 0 kept free as a sentinel.
func writerKey(w, n int) Key {
	if k := Key(4*n + 2*w); k != 0 {
		return k
	}
	return 4 * stressInsPerWriter
}

// checkStressScan runs RangeScan(lo, hi) mid-stress and checks what a
// concurrent scan must guarantee: keys strictly ascending within
// [lo, hi], every tuple matching its key, and every bulkloaded (odd,
// never written) key in range below maxKey delivered.
func checkStressScan(tr *Tree, lo, hi, maxKey Key) error {
	var prev Key
	have := false
	odd := 0
	var bad error
	if _, err := tr.RangeScan(lo, hi, func(k Key, tid TupleID) bool {
		if k < lo || k > hi || (have && k <= prev) || tid != TupleID(k+7) {
			bad = fmt.Errorf("RangeScan(%d, %d) delivered (%d, %d) after key %d", lo, hi, k, tid, prev)
			return false
		}
		if k%2 == 1 && k < maxKey {
			odd++
		}
		prev, have = k, true
		return true
	}); err != nil {
		return fmt.Errorf("RangeScan(%d, %d): %v", lo, hi, err)
	}
	if bad != nil {
		return bad
	}
	want := 0
	for k := lo | 1; k <= hi && k < maxKey; k += 2 {
		want++
	}
	if odd != want {
		return fmt.Errorf("RangeScan(%d, %d) delivered %d bulkloaded keys, want %d", lo, hi, odd, want)
	}
	return nil
}
