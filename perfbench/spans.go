package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// span is one timed call in the traced run: a facade call made by a
// client, a batch of isolated calls into one layer, or the phase that
// encloses them (parent indexes the same log; -1 for none).
type span struct {
	name       uint16
	parent     int32
	start, end int64
}

// spanLog is one client's in-memory span buffer. Only its client
// appends to it; it is written out after the run. A full log counts the
// spans it had to drop instead of growing.
type spanLog struct {
	client  int
	spans   []span
	parent  int32
	dropped uint64
}

const spanCap = 1 << 17

var (
	spanMu    sync.Mutex
	spanLogs  = map[int]*spanLog{}
	spanNames []string
	spanIndex = map[string]uint16{}
)

// spanName interns a span name.
func spanName(name string) uint16 {
	spanMu.Lock()
	defer spanMu.Unlock()
	if i, ok := spanIndex[name]; ok {
		return i
	}
	spanNames = append(spanNames, name)
	spanIndex[name] = uint16(len(spanNames) - 1)
	return uint16(len(spanNames) - 1)
}

var spanOp = [nKinds]uint16{
	spanName("fpbtree.Search"), spanName("fpbtree.Insert"), spanName("fpbtree.Delete"),
	spanName("fpbtree.RangeScan"), spanName("fpbtree.Commit"),
}

var spanPhase = spanName("phase")

// spanLogFor returns client's log, opening a phase span in it that
// parents the spans added until closePhase.
func spanLogFor(client int) *spanLog {
	spanMu.Lock()
	l := spanLogs[client]
	if l == nil {
		l = &spanLog{client: client, spans: make([]span, 0, spanCap), parent: -1}
		spanLogs[client] = l
	}
	spanMu.Unlock()
	l.parent = -1
	if i := l.add(spanPhase, now(), 0); i >= 0 {
		l.parent = int32(i)
	}
	return l
}

// closePhase stamps the end of the log's open phase span.
func (l *spanLog) closePhase() {
	if l.parent >= 0 {
		l.spans[l.parent].end = now()
	}
	l.parent = -1
}

// add appends a span under the open phase and returns its index (-1
// when the log is full).
func (l *spanLog) add(name uint16, t0, t1 int64) int {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: l.parent, start: t0, end: t1})
	return len(l.spans) - 1
}

// writeSpans writes every log as Chrome trace-event JSON (load it in
// ui.perfetto.dev) and resets the logs. It returns the span and drop
// totals.
func writeSpans(path string) (kept, dropped uint64, err error) {
	spanMu.Lock()
	defer spanMu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, l := range spanLogs {
		for i, s := range l.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			end := s.end
			if end < s.start {
				end = s.start
			}
			fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
				spanNames[s.name], l.client, float64(s.start)/1e3, float64(end-s.start)/1e3, i, s.parent)
		}
		kept += uint64(len(l.spans))
		dropped += l.dropped
	}
	fmt.Fprint(w, "\n]}\n")
	spanLogs = map[int]*spanLog{}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return kept, dropped, f.Close()
}
