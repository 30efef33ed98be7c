// Package topo mirrors the topology compiler's iteration discipline:
// specs are compiled by walking declared-order slices, and name→index
// maps exist for lookup only. Ranging such a map to build anything
// ordered — a routing table, a port layout — feeds Go's randomized map
// order into the wiring and breaks compile determinism.
package topo

// entry is one label-table row, (input port, arriving label) → output
// port; the outgoing label is the lowest free one when the row is installed.
type entry struct{ in, vci, out int }

// compileByMap builds a per-stage label table by ranging the name→port
// lookup map: the rows land — and take their labels — in randomized map
// order instead of the declared spec order.
func compileByMap(ports map[string]int, vci int) []entry {
	var table []entry
	for _, port := range ports { // want `appends values derived from the iteration`
		table = append(table, entry{in: 0, vci: vci, out: port})
	}
	return table
}
