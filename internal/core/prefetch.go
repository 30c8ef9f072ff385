package core

import "runtime"

// prefetchNode is the serving-mode half of the paper's node prefetch
// (§2–3): it issues one load per 64-byte line of the in-page node at
// line offset off, lines lines wide. The loads do not depend on each
// other, so an out-of-order core keeps all of the node's misses in
// flight at once and the search that follows finds its lines arriving
// together — T1 + (w−1)·Tnext instead of a chain of dependent misses.
// The folded value goes to runtime.KeepAlive so the compiler cannot
// drop the loads as dead.
//
// The simulated prefetch (memsim Prefetch charges) is separate and
// unchanged; this helper charges nothing. Optimistic descents pass
// offsets read from an unvalidated page image, so a node that would
// start at or before the page header (off ≤ 0) or run past len(d)
// returns at once without reading: a bounds panic there would be
// swallowed by the descent's recover and turned into a restart.
func prefetchNode(d []byte, off, lines int) {
	if off <= 0 || lines <= 0 || off > len(d)/lineSize-lines {
		return
	}
	n := d[nodeBase(off):nodeBase(off+lines)]
	var acc byte
	for i := 0; i < len(n); i += lineSize {
		acc |= n[i]
	}
	runtime.KeepAlive(acc)
}
