package topo

// The references and the synthetic spec generator, exported to the external
// oracle tests (oracle_test.go): those infer generated platforms, and
// MCTOP-ALG imports this package.
var (
	TreeSpec               = treeSpec
	SpecLatency            = specLatency
	MaxLatencyBetweenPairs = maxLatencyBetweenPairs
)

func (t *Topology) MaxLatencyScan() int64 { return t.maxLatencyScan() }
