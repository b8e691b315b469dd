package merlin

import (
	"fmt"
	"reflect"

	"merlin/internal/logical"
)

// CheckAnchoredCold compares every cached anchored product graph with a
// cold logical.BuildAnchored of its statement on the compiler's current
// (possibly degraded) topology, and returns how many it compared. A
// graph whose alphabet generation is stale is skipped: the next pass
// rebuilds it anyway.
func CheckAnchoredCold(c *Compiler) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for id, art := range c.stmts {
		if art.anchored == nil || art.anchoredGen != c.alphaGen {
			continue
		}
		cold, err := logical.BuildAnchored(c.t, art.expr, c.alpha,
			c.t.Node(art.srcs[0]).Name, c.t.Node(art.dsts[0]).Name)
		if err != nil {
			return n, fmt.Errorf("%s: cold build: %w", id, err)
		}
		if !reflect.DeepEqual(art.anchored, cold) {
			return n, fmt.Errorf("%s: cached anchored graph (%d edges) differs from a cold build (%d edges)",
				id, len(art.anchored.Edges), len(cold.Edges))
		}
		n++
	}
	return n, nil
}
