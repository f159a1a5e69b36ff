package mctopalg

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Heatmap renders the latency table the way Figure 6 (1) visualizes it: a
// character per context pair, one shade per latency cluster — the white
// diagonal, the light SMT diagonals, and the intra-/cross-socket blocks
// become immediately visible in a terminal.
//
// Shades are assigned per cluster, light to dark: '.' (self), then
// ' ', '░', '▒', '▓', '█' in cluster order.
func (r *Result) Heatmap() string {
	n := r.RawTable.N()
	if n == 0 {
		return ""
	}
	shades := []rune{' ', '░', '▒', '▓', '█', '@', '#', '%'}
	var b strings.Builder
	fmt.Fprintf(&b, "%d x %d latency table, %d clusters:", n, n, len(r.Clusters))
	for i, c := range r.Clusters {
		fmt.Fprintf(&b, "  %c=%d", shades[min(i, len(shades)-1)], c.Median)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				b.WriteByte('.')
				continue
			}
			idx, ok := stats.Assign(r.Clusters, r.RawTable.At(i, j))
			if !ok {
				b.WriteByte('?')
				continue
			}
			b.WriteRune(shades[min(idx, len(shades)-1)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the raw latency table as comma-separated values, matching
// the tables printed in the paper's Figure 6 — loadable into any plotting
// tool.
func (r *Result) CSV() string {
	var b strings.Builder
	n := r.RawTable.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", r.RawTable.At(i, j))
		}
		if i < n-1 {
			b.WriteByte('\n')
		}
	}
	b.WriteByte('\n')
	return b.String()
}
