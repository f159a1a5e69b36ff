package place

import (
	"fmt"

	"repro/internal/topo"
)

// Reconstruct rebuilds a Placement from a previously computed assignment
// order without re-running its policy — how the description-file spool
// (internal/spool) revives placements persisted by an earlier process. The
// order is validated exactly like NewFrom's; policyName resolves to the
// builtin Policy when it names one (so Policy() answers as it did on the
// producing side) and to Custom otherwise, with the name preserved as
// PolicyName. The pin/unpin cursor starts fresh: pins are process state,
// not part of the persisted mapping.
func Reconstruct(t *topo.Topology, policyName string, ctxs []int) (*Placement, error) {
	if policyName == "" {
		return nil, fmt.Errorf("%w: placement has empty policy name", ErrInvalid)
	}
	for i, c := range ctxs {
		if c < -1 || c >= t.NumHWContexts() {
			return nil, fmt.Errorf("%w: saved placement %s slot %d names context %d (machine has %d)",
				ErrInvalid, policyName, i, c, t.NumHWContexts())
		}
	}
	policy := Custom
	if p, err := Resolve(policyName); err == nil {
		policy = p
	}
	return &Placement{
		t:      t,
		policy: policy,
		name:   policyName,
		ctxs:   append([]int(nil), ctxs...),
	}, nil
}
