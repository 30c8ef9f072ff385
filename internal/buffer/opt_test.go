package buffer

import (
	"testing"

	"repro/internal/obs"
)

// newOptPool builds a small concurrent pool with one resident page and
// returns the pool and the page's ID. Tests that need the optimistic
// read path skip themselves when it is unsupported (race detector).
func newOptPool(t *testing.T) (*Pool, uint32) {
	t.Helper()
	p := NewConcurrentPool(NewMemStore(512), 8, 1)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[0] = 0xAB
	pid := pg.ID
	p.Unpin(pg, true)
	if !p.OptSupported() {
		t.Skip("optimistic reads unsupported (race detector build)")
	}
	return p, pid
}

func TestReadOptValidateUntouched(t *testing.T) {
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed on a resident, unlatched page")
	}
	if pg.ID != pid || pg.Data[0] != 0xAB {
		t.Fatalf("ReadOpt snapshot wrong: id=%d data[0]=%#x", pg.ID, pg.Data[0])
	}
	if !p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt failed with no intervening writer")
	}
	// Validation is repeatable: the snapshot stays good until a writer
	// or eviction touches the page.
	if !p.ValidateOpt(pg) {
		t.Fatal("second ValidateOpt failed")
	}
}

func TestReadOptRejectsWriteLocked(t *testing.T) {
	p, pid := newOptPool(t)
	p.Latches().Lock(pid)
	if _, ok := p.ReadOpt(pid); ok {
		t.Fatal("ReadOpt succeeded on an exclusively latched page")
	}
	if _, st := p.ReadOptStatus(pid); st != OptRetry {
		t.Fatalf("ReadOptStatus on a write-locked page = %d, want OptRetry", st)
	}
	p.Latches().Unlock(pid)
	if _, ok := p.ReadOpt(pid); !ok {
		t.Fatal("ReadOpt failed after the latch was released")
	}
}

func TestValidateOptSeesWriter(t *testing.T) {
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	p.Latches().Lock(pid)
	p.Latches().Unlock(pid)
	if p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt passed across an exclusive latch section")
	}
}

func TestValidateOptSeesSharedReaders(t *testing.T) {
	// Shared latches must NOT invalidate optimistic snapshots: only
	// writers bump the version.
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	p.Latches().RLock(pid)
	p.Latches().RUnlock(pid)
	if !p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt failed across a shared latch section")
	}
}

func TestValidateOptSeesFreePage(t *testing.T) {
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	if err := p.FreePage(pid); err != nil {
		t.Fatal(err)
	}
	if p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt passed after FreePage recycled the pid")
	}
}

func TestValidateOptSeesEviction(t *testing.T) {
	// Evicting the frame and refilling it with another page must fail
	// validation even though the []byte snapshot still points at the
	// same backing array.
	p := NewConcurrentPool(NewMemStore(512), 2, 1)
	a, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pidA := a.ID
	a.Data[0] = 0xAA
	p.Unpin(a, true)
	if !p.OptSupported() {
		t.Skip("optimistic reads unsupported (race detector build)")
	}
	pg, ok := p.ReadOpt(pidA)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	// Churn enough new pages through the 2-frame pool to evict A.
	for i := 0; i < 6; i++ {
		n, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(n, false)
	}
	if p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt passed after the frame was evicted and reused")
	}
	if _, st := p.ReadOptStatus(pidA); st != OptMiss {
		t.Fatalf("ReadOptStatus on the evicted page = %d, want OptMiss", st)
	}
}

func TestReadOptMissReturnsFalse(t *testing.T) {
	p, pid := newOptPool(t)
	if _, ok := p.ReadOpt(pid + 1000); ok {
		t.Fatal("ReadOpt fabricated a snapshot for a nonexistent page")
	}
	// Non-residency is its own outcome: callers fall back to a latched
	// Get at once instead of restarting as if a writer interfered.
	if _, st := p.ReadOptStatus(pid + 1000); st != OptMiss {
		t.Fatalf("ReadOptStatus on a non-resident page = %d, want OptMiss", st)
	}
}

// TestOptTableLookupCounter checks buffer.opt_table_lookups: an
// optimistic read whose fast slot holds another page counts one table
// lookup and repopulates the slot, so the page's next read is
// counter-free; a warm read never counts.
func TestOptTableLookupCounter(t *testing.T) {
	p, pid := newOptPool(t)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	lookups := func() uint64 { return reg.Snapshot().Counters["buffer.opt_table_lookups"] }

	slot := &p.shards[0].fast[pid&(fastSize-1)]
	slot.Store(packFast(pid+fastSize, 0)) // a colliding page owns the slot
	base := lookups()
	if _, st := p.ReadOptStatus(pid); st != OptOK {
		t.Fatalf("ReadOptStatus after a slot collision = %d, want OptOK", st)
	}
	if got := lookups(); got != base+1 {
		t.Fatalf("slot collision counted %d table lookups, want 1", got-base)
	}
	for i := 0; i < 8; i++ {
		if _, st := p.ReadOptStatus(pid); st != OptOK {
			t.Fatalf("warm ReadOptStatus = %d, want OptOK", st)
		}
	}
	if got := lookups(); got != base+1 {
		t.Fatalf("warm optimistic reads moved opt_table_lookups by %d; the repopulated slot must serve them", got-base-1)
	}
	p.ResetStats()
	if got := lookups(); got != 0 {
		t.Fatalf("ResetStats left opt_table_lookups at %d", got)
	}
}
