package topo

// The pre-index references and the synthetic spec generator, exported to the
// external oracle tests (oracle_test.go): those infer generated platforms,
// and MCTOP-ALG imports this package.
var TreeSpec = treeSpec

func (t *Topology) GetLatencyWalk(x, y int) int64          { return t.getLatencyWalk(x, y) }
func (t *Topology) MaxLatencyBetweenWalk(ctxs []int) int64 { return t.maxLatencyBetweenWalk(ctxs) }
func (t *Topology) MaxLatencyScan() int64                  { return t.maxLatencyScan() }
