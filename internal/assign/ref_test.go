package assign

import (
	"repro/internal/blockplan"
	"repro/internal/keytree"
	"repro/internal/packet"
)

// refENC is the two-walk path WriteENC replaced, kept as its reference:
// Materialize the plan into packet structs, then marshal each into its
// own PacketLen slot. It returns the first error either step reports.
func refENC(plan *Plan, res *keytree.BatchResult, msgID uint8, k int) ([][]byte, error) {
	encs, err := Materialize(plan, res, msgID, k)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(encs))
	for i, e := range encs {
		out[i] = make([]byte, packet.PacketLen)
		if err := e.MarshalInto(out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// writeENC runs WriteENC into fresh slots, filled with junk so that a
// byte the writer fails to write shows.
func writeENC(plan *Plan, res *keytree.BatchResult, msgID uint8, k int) ([][]byte, error) {
	part, err := blockplan.NewPartition(len(plan.Packets), k)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, part.TotalSlots())
	for i := range out {
		out[i] = make([]byte, packet.PacketLen)
		for j := range out[i] {
			out[i][j] = 0xa5
		}
	}
	if err := plan.WriteENC(out, res, msgID, part); err != nil {
		return nil, err
	}
	return out, nil
}
