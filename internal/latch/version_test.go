package latch

import (
	"testing"

	"repro/internal/obs"
)

// TestVersionSeqlockSemantics pins the optimistic-read contract: a
// version sampled while unlocked validates iff no exclusive acquire
// happened in between, and an exclusive holder is visible to both
// ReadVersion and Validate.
func TestVersionSeqlockSemantics(t *testing.T) {
	lt := NewTable()
	const pid = 9

	ver, ok := lt.ReadVersion(pid)
	if !ok {
		t.Fatal("ReadVersion not ok on a free latch")
	}
	if !lt.Validate(pid, ver) {
		t.Fatal("Validate failed with no writer activity")
	}

	// Shared holders must not disturb the version.
	lt.RLock(pid)
	if !lt.Validate(pid, ver) {
		t.Fatal("shared holder broke validation")
	}
	if v2, ok2 := lt.ReadVersion(pid); !ok2 || v2 != ver {
		t.Fatalf("ReadVersion under shared hold = (%d,%v), want (%d,true)", v2, ok2, ver)
	}
	lt.RUnlock(pid)

	// An exclusive section must fail both sampling and validation.
	lt.Lock(pid)
	if _, ok2 := lt.ReadVersion(pid); ok2 {
		t.Fatal("ReadVersion ok while exclusively held")
	}
	if lt.Validate(pid, ver) {
		t.Fatal("Validate passed while exclusively held")
	}
	lt.Unlock(pid)
	if lt.Validate(pid, ver) {
		t.Fatal("Validate passed across an exclusive acquire/release")
	}

	// The post-write version is stable again.
	ver2, ok := lt.ReadVersion(pid)
	if !ok || ver2 == ver {
		t.Fatalf("post-write ReadVersion = (%d,%v), want a new version", ver2, ok)
	}
	if !lt.Validate(pid, ver2) {
		t.Fatal("fresh version did not validate")
	}
}

// TestInvalidateBumpsVersion checks the pool's recycle hook: a version
// sampled before Invalidate never validates after it.
func TestInvalidateBumpsVersion(t *testing.T) {
	lt := NewTable()
	ver, ok := lt.ReadVersion(3)
	if !ok {
		t.Fatal("ReadVersion not ok on a free latch")
	}
	lt.Invalidate(3)
	if lt.Validate(3, ver) {
		t.Fatal("Validate passed across Invalidate")
	}
}

// TestTryLockBumpsVersion checks the eviction handshake: the
// TryLock/Unlock pair leaves the version two bumps ahead, so an
// optimistic reader overlapping an eviction can never validate.
func TestTryLockBumpsVersion(t *testing.T) {
	lt := NewTable()
	before := lt.Version(5)
	if !lt.TryLock(5) {
		t.Fatal("TryLock failed on a free latch")
	}
	lt.Unlock(5)
	if got := lt.Version(5); got != before+2 {
		t.Fatalf("Version after TryLock/Unlock = %d, want %d", got, before+2)
	}
}

func TestOptCounters(t *testing.T) {
	lt := NewTable()
	lt.OptRestart()
	lt.OptRestart()
	lt.OptFallback()
	lt.OptWriteRestart()
	lt.OptWriteRestart()
	lt.OptWriteRestart()
	lt.OptWriteFallback()
	reg := obs.NewRegistry()
	lt.RegisterMetrics(reg)
	snap := reg.Snapshot()
	if got := snap.Counters["latch.opt_restarts"]; got != 2 {
		t.Errorf("latch.opt_restarts = %d, want 2", got)
	}
	if got := snap.Counters["latch.opt_fallbacks"]; got != 1 {
		t.Errorf("latch.opt_fallbacks = %d, want 1", got)
	}
	// Writer restarts are counted apart, so the reader counters keep
	// their reader-only meaning.
	if got := snap.Counters["latch.opt_write_restarts"]; got != 3 {
		t.Errorf("latch.opt_write_restarts = %d, want 3", got)
	}
	if got := snap.Counters["latch.opt_write_fallbacks"]; got != 1 {
		t.Errorf("latch.opt_write_fallbacks = %d, want 1", got)
	}
	if lt.OptWriteRestarts() != 3 {
		t.Errorf("OptWriteRestarts() = %d, want 3", lt.OptWriteRestarts())
	}
	if lt.OptRestarts() != 2 || lt.OptFallbacks() != 1 {
		t.Errorf("accessors = (%d,%d), want (2,1)", lt.OptRestarts(), lt.OptFallbacks())
	}
}

// TestBackoffPhases checks the two-phase shape: the first spinPauses
// pauses stay in the spinning phase, later ones yield; Reset rewinds.
func TestBackoffPhases(t *testing.T) {
	var b Backoff
	for i := 0; i < spinPauses+3; i++ {
		b.Pause()
	}
	if got := b.Attempts(); got != spinPauses+3 {
		t.Fatalf("Attempts = %d, want %d", got, spinPauses+3)
	}
	b.Reset()
	if b.Attempts() != 0 {
		t.Fatal("Reset did not rewind attempts")
	}
}

// FuzzLatchWord drives one latch word through an arbitrary op sequence
// and checks the packing invariants after every step: Holders decodes
// the model state, the version moves only on exclusive activity or
// Invalidate, versions sampled while unlocked validate iff no
// exclusive acquire or Invalidate intervened.
func FuzzLatchWord(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{4, 0, 1, 5, 2, 2, 3, 3, 6, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		lt := NewTable()
		const pid = 11
		shared := 0   // model: current shared holders
		excl := false // model: exclusive held
		verBumps := 0 // model: expected version counter
		sampled := -1 // last version bump count sampled unlocked, -1 = none
		var sampledVer uint64
		for _, op := range ops {
			switch op % 7 {
			case 0: // TryRLock
				if lt.TryRLock(pid) {
					if excl {
						t.Fatal("TryRLock succeeded while exclusive")
					}
					shared++
				} else if !excl {
					t.Fatal("TryRLock failed with no exclusive holder")
				}
			case 1: // RUnlock (only when the model holds one)
				if shared > 0 {
					lt.RUnlock(pid)
					shared--
				}
			case 2: // TryLock
				if lt.TryLock(pid) {
					if excl || shared > 0 {
						t.Fatal("TryLock succeeded while held")
					}
					excl = true
					verBumps++
				} else if !excl && shared == 0 {
					t.Fatal("TryLock failed on a free latch")
				}
			case 3: // Unlock
				if excl {
					lt.Unlock(pid)
					excl = false
					verBumps++
				}
			case 4: // Invalidate
				lt.Invalidate(pid)
				verBumps++
			case 5: // ReadVersion
				v, ok := lt.ReadVersion(pid)
				if ok == excl {
					t.Fatalf("ReadVersion ok=%v with excl=%v", ok, excl)
				}
				if ok {
					sampled = verBumps
					sampledVer = v
				}
			case 6: // Validate the last sample
				if sampled >= 0 {
					want := !excl && verBumps == sampled
					if got := lt.Validate(pid, sampledVer); got != want {
						t.Fatalf("Validate = %v, want %v (bumps %d sampled %d excl %v)",
							got, want, verBumps, sampled, excl)
					}
				}
			}
			wantHolders := shared
			if excl {
				wantHolders = -1
			}
			if got := lt.Holders(pid); got != wantHolders {
				t.Fatalf("Holders = %d, model %d", got, wantHolders)
			}
			if got := lt.Version(pid); got != uint64(verBumps) {
				t.Fatalf("Version = %d, model %d", got, verBumps)
			}
		}
	})
}
