package core

import (
	"math"
	"testing"
)

// TestPrefetchNodeWildOffsets drives prefetchNode with the offsets a
// torn optimistic read can produce. Every buffer has its capacity
// clipped to its length, so a read outside it would panic instead of
// landing in spare capacity; none of the calls may panic.
func TestPrefetchNodeWildOffsets(t *testing.T) {
	const page = 4096
	const pageLines = page / lineSize
	cases := []struct {
		name       string
		size       int
		off, lines int
	}{
		{"header line", page, 0, 4},
		{"negative", page, -1, 4},
		{"very negative", page, math.MinInt, 4},
		{"past the page", page, pageLines, 1},
		{"far past the page", page, math.MaxInt, 4},
		{"straddles the end", page, pageLines - 2, 4},
		{"straddles an odd-sized end", page - 1, pageLines - 1, 1},
		{"overflowing width", page, 1, math.MaxInt},
		{"zero lines", page, 3, 0},
		{"negative lines", page, 3, -4},
		{"most negative lines", page, 3, math.MinInt},
		{"ends at the page end", page, pageLines - 4, 4},
		{"first node", page, 1, 4},
		{"shorter than a line", lineSize - 1, 1, 1},
		{"empty", 0, 1, 1},
	}
	for _, c := range cases {
		buf := make([]byte, c.size+page) // spare bytes beyond the clip
		d := buf[:c.size:c.size]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: prefetchNode(len %d, off %d, lines %d) panicked: %v",
						c.name, c.size, c.off, c.lines, r)
				}
			}()
			prefetchNode(d, c.off, c.lines)
		}()
	}
}
