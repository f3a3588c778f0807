package main

import (
	"fmt"
	"io"
	"sort"
)

// shapeGuard prints each latency class's share and median, and fails when a
// boundary between two classes whose medians differ by more than 20% lies
// within five percentile points of a gated percentile (p50, p90). On such a
// boundary the percentile flips between two classes on noise alone and
// measures nothing. The check runs on class medians pooled over all passes,
// not on raw adjacent samples, so a burst of host noise inside one class
// cannot trip it.
func shapeGuard(p *plan, passes []passResult, w io.Writer) error {
	pooled := map[string][]float64{}
	total := 0
	for i := range passes {
		lats, class := passes[i].latencies()
		for j, l := range lats {
			pooled[class[j]] = append(pooled[class[j]], l)
			total++
		}
	}
	if total == 0 {
		return nil
	}
	type class struct {
		name   string
		share  float64
		median float64
	}
	var cs []class
	for name, ls := range pooled {
		cs = append(cs, class{name, 100 * float64(len(ls)) / float64(total), median(ls)})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].median != cs[j].median {
			return cs[i].median < cs[j].median
		}
		return cs[i].name < cs[j].name
	})
	var err error
	cum := 0.0
	fmt.Fprintf(w, "%-18s %8s %10s %12s\n", "latency class", "share %", "up to p", "median ms")
	for i, c := range cs {
		cum += c.share
		fmt.Fprintf(w, "%-18s %8.1f %10.1f %12.3f\n", c.name, c.share, cum, c.median)
		if i+1 == len(cs) || cs[i+1].median <= 1.2*c.median {
			continue
		}
		for _, gated := range []float64{50, 90} {
			if cum > gated-5 && cum < gated+5 && err == nil {
				err = fmt.Errorf("shape guard: %s: the %s|%s class boundary (%.3f ms | %.3f ms) sits at p%.1f, within 5 points of p%.0f",
					p.spec.name, c.name, cs[i+1].name, c.median, cs[i+1].median, cum, gated)
			}
		}
	}
	return err
}
