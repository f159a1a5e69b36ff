package loadgen

// Report rendering: the human table `mctop-bench load` prints.

import (
	"fmt"
	"strings"
	"time"
)

// String renders the human report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %s: %d requests in %s (%.1f rps, %d workers, %d errors)\n",
		r.Target, r.Requests, r.Elapsed.Round(time.Millisecond), r.Throughput, r.Workers, r.Errors)
	if r.Corrupt > 0 || r.Hangs > 0 {
		fmt.Fprintf(&b, "chaos: %d corrupt responses, %d hangs\n", r.Corrupt, r.Hangs)
	}
	fmt.Fprintf(&b, "%-26s %8s %7s %10s %10s %10s %10s %10s\n",
		"route", "reqs", "errs", "mean", "p50", "p95", "p99", "max")
	for _, rs := range r.Routes {
		fmt.Fprintf(&b, "%-26s %8d %7d %10s %10s %10s %10s %10s\n",
			rs.Route, rs.Requests, rs.Errors,
			round(rs.Mean), round(rs.P50), round(rs.P95), round(rs.P99), round(rs.Max))
	}
	if len(r.Spans) > 0 {
		fmt.Fprintf(&b, "span attribution (scraped from /v1/debug/traces):\n")
		fmt.Fprintf(&b, "%-26s %8s %7s %10s %10s\n", "span", "count", "errs", "mean", "max")
		for _, ss := range r.Spans {
			fmt.Fprintf(&b, "%-26s %8d %7d %10s %10s\n",
				ss.Name, ss.Count, ss.Errors, round(ss.Mean), round(ss.Max))
		}
	}
	if len(r.SLOFailures) == 0 {
		b.WriteString("SLO: pass\n")
	} else {
		for _, f := range r.SLOFailures {
			fmt.Fprintf(&b, "SLO FAIL: %s\n", f)
		}
	}
	return b.String()
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
