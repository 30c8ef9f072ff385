//go:build !race

// These tests assert properties of the optimistic read path that only
// hold when it is actually enabled; under the race detector it turns
// itself off (seqlock-style reads are intentional data races), so the
// whole file is compiled out there. The -race counterpart is the
// conformance matrix in optimistic_test.go.

package fpbtree

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/idx"
)

// TestOptimisticReadOnlyLatchFree is the acceptance check for the
// latch-free claim: a read-only search phase in the default serving
// mode must take zero shared latches and zero locked pool gets beyond
// the bulkload/warmup baseline, while the same phase under
// WithPessimisticReads takes at least one shared latch per search.
func TestOptimisticReadOnlyLatchFree(t *testing.T) {
	const keys = 3000
	const searchesPerReader = 4000
	const readers = 4
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			run := func(pess bool) (sharedDelta, lockedDelta, fallbacks uint64) {
				opts := []Option{
					WithVariant(v),
					WithConcurrency(readers),
					WithPageSize(4 << 10),
					WithBufferPages(1024),
				}
				if pess {
					opts = append(opts, WithPessimisticReads())
				}
				tr, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				entries := make([]Entry, keys)
				for i := range entries {
					k := Key(2*i + 1)
					entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
				}
				if err := tr.Bulkload(entries, 0.9); err != nil {
					t.Fatal(err)
				}
				// Warm the pool so the measured phase has no misses
				// (a miss legitimately takes the shard lock).
				if _, err := tr.RangeScan(0, ^Key(0), nil); err != nil {
					t.Fatal(err)
				}
				base := tr.MetricsSnapshot()

				var wg sync.WaitGroup
				errs := make(chan error, readers)
				for w := 0; w < readers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						x := uint32(99*w + 7)
						for n := 0; n < searchesPerReader; n++ {
							x = x*1664525 + 1013904223
							k := Key(x%keys)*2 + 1
							tid, ok, err := tr.Search(k)
							if err != nil {
								errs <- err
								return
							}
							if !ok || tid != TupleID(k+7) {
								errs <- fmt.Errorf("Search(%d) = (%d,%v), want (%d,true)", k, tid, ok, k+7)
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
				snap := tr.MetricsSnapshot()
				return snap.Counters["latch.shared_acquisitions"] - base.Counters["latch.shared_acquisitions"],
					snap.Counters["pool.shard.locked_gets"] - base.Counters["pool.shard.locked_gets"],
					snap.Counters["latch.opt_fallbacks"] - base.Counters["latch.opt_fallbacks"]
			}

			shared, locked, fallbacks := run(false)
			if shared != 0 {
				t.Errorf("optimistic read-only phase took %d shared latches, want 0", shared)
			}
			if locked != 0 {
				t.Errorf("optimistic read-only phase took %d locked pool gets, want 0", locked)
			}
			if fallbacks != 0 {
				t.Errorf("optimistic read-only phase fell back %d times with no writers", fallbacks)
			}
			shared, _, _ = run(true)
			if want := uint64(readers * searchesPerReader); shared < want {
				t.Errorf("pessimistic read-only phase took %d shared latches, want >= %d", shared, want)
			}
		})
	}
}

// TestOptimisticSplitStormBounded drives a split storm (a writer
// inserting a dense ascending run) against optimistic readers on every
// variant: every read must stay correct despite concurrent in-page
// reorganization and page splits, and the restart machinery must stay
// bounded — no search spins more than the restart budget before
// falling back (the counters prove the bound: restarts never exceed
// budget × attempts-with-restarts, and the test terminating at all is
// the liveness half). This is the regression test for torn leaf-chain
// reads and for unbounded restart loops.
func TestOptimisticSplitStormBounded(t *testing.T) {
	const (
		oddKeys  = 2000
		inserts  = 6000
		searches = 8000
	)
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(
				WithVariant(v),
				WithConcurrency(3),
				WithPageSize(4<<10),
				WithBufferPages(1024),
			)
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]Entry, oddKeys)
			for i := range entries {
				k := Key(2*i + 1)
				entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
			}
			// Bulkload full pages so the insert run splits constantly.
			if err := tr.Bulkload(entries, 1.0); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			errs := make(chan error, 3)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					x := uint32(77*w + 13)
					for n := 0; n < searches; n++ {
						x = x*1664525 + 1013904223
						k := Key(x%oddKeys)*2 + 1
						tid, ok, err := tr.Search(k)
						if err != nil {
							errs <- err
							return
						}
						if !ok || tid != TupleID(k+7) {
							errs <- fmt.Errorf("Search(%d) = (%d,%v) mid-storm, want (%d,true)", k, tid, ok, k+7)
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < inserts; n++ {
					k := Key(2*oddKeys + 2 + 2*n) // dense even run above the bulk range
					if err := tr.Insert(k, TupleID(k+7)); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if n := tr.PinnedPages(); n != 0 {
				t.Fatalf("%d pinned pages leaked", n)
			}
			snap := tr.MetricsSnapshot()
			restarts := snap.Counters["latch.opt_restarts"]
			fallbacks := snap.Counters["latch.opt_fallbacks"]
			// Writers keep their own counters (the disk-first leaf-only
			// insert restarts when a split re-ranges its leaf), bounded
			// by the same budget per insert.
			if wr := snap.Counters["latch.opt_write_restarts"]; wr > 8*inserts {
				t.Errorf("opt_write_restarts = %d exceeds the 8-per-insert budget over %d inserts", wr, inserts)
			}
			// The restart budget is 8 per lookup: across 2×searches
			// lookups the counter can never exceed budget × lookups,
			// and each fallback accounts for a full budget of restarts.
			totalLookups := uint64(2 * searches)
			if restarts > 8*totalLookups {
				t.Errorf("opt_restarts = %d exceeds the 8-per-lookup budget over %d lookups", restarts, totalLookups)
			}
			if fallbacks > totalLookups {
				t.Errorf("opt_fallbacks = %d exceeds lookup count %d", fallbacks, totalLookups)
			}
			t.Logf("%s: %d opt restarts, %d fallbacks over %d lookups under split storm", v, restarts, fallbacks, totalLookups)
		})
	}
}

// TestOptimisticMissIsNotInterference is the regression test for pool
// misses on the optimistic path: a single goroutine searching a tree
// larger than its pool meets non-resident pages constantly, and with no
// writer in the process nothing can interfere, so every variant must
// fall back to the latched path at once — zero restarts, zero budget
// fallbacks — and still answer correctly.
func TestOptimisticMissIsNotInterference(t *testing.T) {
	const keys = 40000
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(
				WithVariant(v),
				WithConcurrency(1),
				WithPageSize(4<<10),
				WithBufferPages(24),
			)
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]Entry, keys)
			for i := range entries {
				k := Key(2*i + 1)
				entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
			}
			if err := tr.Bulkload(entries, 1.0); err != nil {
				t.Fatal(err)
			}
			if pages := tr.PageCount(); pages <= 2*24 {
				t.Fatalf("tree has %d pages, want well over the 24-frame pool", pages)
			}
			base := tr.MetricsSnapshot()
			x := uint32(12345)
			for n := 0; n < 3000; n++ {
				x = x*1664525 + 1013904223
				k := Key(x % (2 * keys))
				tid, ok, err := tr.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				if want := k%2 == 1; ok != want || (ok && tid != TupleID(k+7)) {
					t.Fatalf("Search(%d) = (%d,%v), want present=%v", k, tid, ok, want)
				}
			}
			snap := tr.MetricsSnapshot()
			delta := func(name string) uint64 { return snap.Counters[name] - base.Counters[name] }
			if m := delta("buffer.demand_misses"); m == 0 {
				t.Fatal("no pool misses: the test did not search evicted pages")
			}
			if r := delta("latch.opt_restarts"); r != 0 {
				t.Errorf("%d optimistic restarts with no writer: misses were treated as interference", r)
			}
			if f := delta("latch.opt_fallbacks"); f != 0 {
				t.Errorf("%d restart-budget fallbacks with no writer", f)
			}
		})
	}
}

// TestOptimisticWritersLeafOnly asserts the disk-first writers'
// leaf-only protocol: on a warm tree of height >= 3, two goroutines run
// non-splitting inserts and deletes into disjoint leaves. Each write
// must take exactly one latch — the leaf's, exclusively — so exclusive
// acquisitions equal the write count, shared acquisitions stay at 0,
// and the root page's latch version never moves.
func TestOptimisticWritersLeafOnly(t *testing.T) {
	const (
		keys   = 20000 // bulkloaded: 4i+1
		stride = 40    // one write key per ~10 entries keeps every leaf far from splitting
	)
	tr, err := New(
		WithVariant(DiskFirst),
		WithConcurrency(2),
		WithPageSize(1<<10),
		WithBufferPages(2048),
	)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, keys)
	for i := range entries {
		k := Key(4*i + 1)
		entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
	}
	if err := tr.Bulkload(entries, 0.5); err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h < 3 {
		t.Fatalf("height %d, want >= 3", h)
	}
	if _, err := tr.RangeScan(0, ^Key(0), nil); err != nil {
		t.Fatal(err)
	}
	root := tr.index.(idx.Recoverable).DurableMeta().RootPID
	lt := tr.pool.Latches()
	rootVer := lt.Version(root)
	base := tr.MetricsSnapshot()

	// Goroutine g writes keys 4i+3 in its own half of the key space; a
	// gap of a few leaves between the halves keeps the leaves disjoint.
	half := Key(4 * keys / 2)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	writes := make([]int, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lo := Key(g)*half + 3
			hi := lo + half - 1000
			var mine []Key
			for k := lo; k < hi; k += stride {
				if err := tr.Insert(k, TupleID(k+7)); err != nil {
					errs <- err
					return
				}
				mine = append(mine, k)
			}
			for _, k := range mine {
				if ok, err := tr.Delete(k); err != nil || !ok {
					errs <- fmt.Errorf("Delete(%d) = (%v, %v), want (true, nil)", k, ok, err)
					return
				}
			}
			writes[g] = 2 * len(mine)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := tr.MetricsSnapshot()
	delta := func(name string) uint64 { return snap.Counters[name] - base.Counters[name] }
	total := uint64(writes[0] + writes[1])
	if got := delta("latch.exclusive_acquisitions"); got != total {
		t.Errorf("exclusive acquisitions = %d, want exactly one per write (%d)", got, total)
	}
	if got := delta("latch.shared_acquisitions"); got != 0 {
		t.Errorf("shared acquisitions = %d, want 0", got)
	}
	if got := lt.Version(root); got != rootVer {
		t.Errorf("root page %d latch version moved %d -> %d", root, rootVer, got)
	}
	if got := delta("latch.opt_write_fallbacks"); got != 0 {
		t.Errorf("%d writes fell back to crabbing", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if n, err := tr.RangeScan(0, ^Key(0), nil); err != nil || n != keys {
		t.Fatalf("final scan = (%d, %v), want (%d, nil)", n, err, keys)
	}
}

// TestServingSearchAllocs asserts the allocation-free serving search: on
// a warm tree in concurrent mode with optimistic reads, a facade Search
// (latch-free descent, node prefetch, wall-clock latency histogram)
// makes 0 allocs/op. The shared-latch count checks that the measured
// searches really ran the optimistic path.
func TestServingSearchAllocs(t *testing.T) {
	const keys = 20000
	for _, v := range []Variant{DiskFirst, CacheFirst} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(
				WithVariant(v),
				WithConcurrency(2),
				WithPageSize(4<<10),
				WithBufferPages(1024),
			)
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]Entry, keys)
			for i := range entries {
				k := Key(2*i + 1)
				entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
			}
			if err := tr.Bulkload(entries, 1.0); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.RangeScan(0, ^Key(0), nil); err != nil {
				t.Fatal(err)
			}
			base := tr.MetricsSnapshot()
			x := uint32(7)
			allocs := testing.AllocsPerRun(2000, func() {
				x = x*1664525 + 1013904223
				k := Key(x % (2 * keys))
				tid, ok, err := tr.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				if want := k%2 == 1; ok != want || (ok && tid != TupleID(k+7)) {
					t.Fatalf("Search(%d) = (%d,%v), want present=%v", k, tid, ok, want)
				}
			})
			if allocs != 0 {
				t.Errorf("warm serving Search allocates %.2f objects/op, want 0", allocs)
			}
			snap := tr.MetricsSnapshot()
			if d := snap.Counters["latch.shared_acquisitions"] - base.Counters["latch.shared_acquisitions"]; d != 0 {
				t.Errorf("%d shared latches during the measured searches: the optimistic path did not run", d)
			}
		})
	}
}
