package routing

import "vdtn/internal/core"

// Epidemic is flooding-based routing (Vahdat & Becker 2000): at every
// contact, nodes exchange the messages the other side does not yet have.
// With infinite buffers and bandwidth it is delay-optimal; under resource
// constraints its performance hinges on the scheduling and dropping policy
// in force — which is exactly the knob the paper turns.
type Epidemic struct{ policyRouter }

// NewEpidemic returns an Epidemic router governed by the given combined
// scheduling-dropping policy.
func NewEpidemic(pol core.Policy) *Epidemic {
	return &Epidemic{newPolicyRouter("Epidemic", pol, nil)}
}

// Name implements Router.
func (e *Epidemic) Name() string { return "Epidemic" }
