package dataflow

// SummaryAnalysis describes one bottom-up interprocedural summary
// computation over a CallGraph: every node gets a summary fact of type
// S, computed from its own code plus the summaries of its callees.
// lockorder's transitive lock-set closures are its user.
type SummaryAnalysis[N comparable, S any] struct {
	// Bottom returns node n's initial summary — the least element of
	// n's summary lattice (for example "acquires no lock").
	Bottom func(n N) S
	// Transfer recomputes n's summary from scratch. get yields the
	// current summary of any node (Bottom for nodes not yet computed,
	// so querying something outside the graph is safe). Transfer must
	// be monotone in its callees' summaries for the fixpoint to
	// terminate at the least solution.
	Transfer func(n N, get func(N) S) S
	// Equal reports whether two summaries are equal; it decides when a
	// cyclic component has reached its fixpoint.
	Equal func(a, b S) bool
}

// FixSummaries computes every node's summary bottom-up over the call
// graph's condensation: strongly connected components are processed
// callees-first, an acyclic node takes exactly one Transfer, and
// mutually (or self-) recursive nodes iterate within their component
// until the summaries stop changing. A sweep cap bounds the iteration
// defensively against a non-monotone Transfer.
func FixSummaries[N comparable, S any](g *CallGraph[N], a SummaryAnalysis[N, S]) map[N]S {
	out := make(map[N]S, len(g.Nodes()))
	get := func(n N) S {
		if s, ok := out[n]; ok {
			return s
		}
		return a.Bottom(n)
	}
	for _, comp := range g.SCCs() {
		for _, n := range comp {
			out[n] = a.Bottom(n)
		}
		if len(comp) == 1 && !g.HasEdge(comp[0], comp[0]) {
			out[comp[0]] = a.Transfer(comp[0], get)
			continue
		}
		maxSweeps := 4*len(comp) + 16
		for sweep := 0; sweep < maxSweeps; sweep++ {
			changed := false
			for _, n := range comp {
				s := a.Transfer(n, get)
				if !a.Equal(s, out[n]) {
					out[n] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return out
}
