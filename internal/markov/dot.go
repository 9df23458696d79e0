package markov

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// DOT renders the chain as a Graphviz digraph with transition probabilities
// on the edges (computed from the failure rates and state durations) — a
// debugging and documentation aid for the model builders.
func (c *Chain) DOT(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n  node [shape=box];\n")
	b.WriteString("  done [shape=doublecircle, label=\"Done\"];\n")
	for s := range c.durations {
		fmt.Fprintf(&b, "  s%d [label=\"%s\\nd=%.3g\"];\n", s, c.names[s], c.durations[s])
	}
	node := func(id int) string {
		if id == Done {
			return "done"
		}
		return fmt.Sprintf("s%d", id)
	}
	for s := range c.durations {
		pSucc, pFail := c.probabilities(s)
		if c.succ[s] != math.MinInt32 {
			fmt.Fprintf(&b, "  s%d -> %s [label=\"ok %.4g\"];\n", s, node(c.succ[s]), pSucc)
		}
		if c.totalRate > 0 {
			// Merge same-destination failure edges, as the paper's figures do.
			byDest := map[int]float64{}
			for j, p := range pFail {
				if c.rates[j] == 0 || c.fail[s][j] == math.MinInt32 {
					continue
				}
				byDest[c.fail[s][j]] += p
			}
			dests := make([]int, 0, len(byDest))
			for dst := range byDest {
				dests = append(dests, dst)
			}
			sort.Ints(dests)
			for _, dst := range dests {
				fmt.Fprintf(&b, "  s%d -> %s [style=dashed, label=\"fail %.4g\"];\n",
					s, node(dst), byDest[dst])
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// probabilities returns, for state id, the success probability and the
// per-class failure probabilities within the state's planned duration —
// the edge annotations of the paper's Fig. 4.
func (c *Chain) probabilities(id int) (pSucc float64, pFail []float64) {
	d := c.durations[id]
	pSucc = c.survive(d)
	pFail = make([]float64, len(c.rates))
	if c.totalRate == 0 {
		return pSucc, pFail
	}
	total := -math.Expm1(-c.totalRate * d)
	for j, r := range c.rates {
		pFail[j] = (r / c.totalRate) * total
	}
	return pSucc, pFail
}
