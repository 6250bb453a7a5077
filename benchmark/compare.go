package main

import (
	"fmt"
	"io"
	"math"
)

// compare is `-compare a.json b.json`: for every workload and end-to-end
// metric it prints both medians, how much worse b is than a as a share of
// a, and the bound, and marks the pair
//
//	regressed   b is worse than a by more than the bound
//	unresolved  no regression, but either side's run-to-run spread
//	            (quartile distance over median) is wider than the bound,
//	            so "unchanged" cannot be claimed either
//	ok          otherwise
//
// error_rate has no tolerance: it regresses if it rises at all. It
// returns the number of regressions.
func compare(w io.Writer, a, b *report) int {
	regressions := 0
	fmt.Fprintf(w, "%-15s %-15s %12s %12s %8s %7s %8s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "worse", "bound", "spread", "verdict")
	for _, wl := range workloadNames {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		if wa == nil || wb == nil {
			continue
		}
		for _, def := range endToEnd {
			va, vb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == 0 && mb == 0 {
				continue // the metric does not apply to this workload
			}
			worse := (mb - ma) / math.Abs(ma)
			if def.Better == "higher" {
				worse = -worse
			}
			if ma == 0 {
				worse = math.Inf(1)
			}
			sp := spread(va) // NaN when a side has a single run
			if sb := spread(vb); math.IsNaN(sp) || sb > sp {
				sp = sb
			}
			verdict := "ok"
			switch {
			case worse > def.Bound:
				verdict = "regressed"
				regressions++
			case sp > def.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-15s %12.4f %12.4f %+7.1f%% %6.1f%% %7.1f%%  %s\n",
				wl, def.Name, ma, mb, 100*worse, 100*def.Bound, 100*sp, verdict)
		}
	}
	return regressions
}
