// Package tuning is the single definition of the rekey protocol's
// tuning knobs. The key server (rekey.Config), the simulation engine
// (vsim.Config) and the UDP transport all embed or read the same
// Tuning struct, so each knob -- FEC block size k, key tree degree d,
// proactivity factor rho and whether it adapts, the NACK target and
// whether it adapts, and the multicast round budget -- is defined,
// defaulted and validated in exactly one place. The defaults are the
// paper's (DESIGN.md): k=10, d=4, rho0=1, numNACK=20 (cap 100), switch
// to unicast after 2 multicast rounds; both adaptations are off.
// Default is the only place they live: no layer fills in a zero knob,
// so a zero means zero and a partial Tuning starts from Default().
// Parallel stages have no knob: FanOut sizes them by GOMAXPROCS.
package tuning

import "fmt"

// MaxK bounds the FEC block size: k data shards plus at least k parity
// shards must fit in the Reed-Solomon code's 256-shard space
// (fec.MaxShards / 2, restated here so the bound lives with the knob).
const MaxK = 128

// Tuning holds the protocol knobs shared by every layer.
type Tuning struct {
	// K is the FEC block size k: ENC packets per block. [1, MaxK].
	K int
	// Degree is the key tree degree d. >= 2.
	Degree int
	// InitialRho is the proactivity factor rho0 used for the first rekey
	// message (adaptive runs adjust it afterwards). >= 0; rho < 1 sends
	// no proactive parity.
	InitialRho float64
	// NumNACK is the target number of first-round NACKs the AdjustRho
	// controller steers toward. >= 0.
	NumNACK int
	// MaxNACK caps NumNACK adaptation. >= 0.
	MaxNACK int
	// AdaptiveRho moves rho after each message's round one (AdjustRho,
	// Fig. 11); off, every message runs InitialRho.
	AdaptiveRho bool
	// AdaptNumNACK moves NumNACK after each message against its
	// deadline misses. It needs the deadline: MaxMulticastRounds > 0.
	AdaptNumNACK bool
	// MaxMulticastRounds is the round count after which the server
	// switches to unicast (the paper suggests 1 or 2); it is also the
	// soft real-time deadline a member's key is counted against. Zero
	// means multicast until a round draws no NACK, for at most 64
	// rounds (protocol.RoundCap), on the wire as in the simulator, and
	// no deadline.
	MaxMulticastRounds int
	// Strategy names the key tree's marking algorithm. The only one is
	// "paper", the source paper's Appendix B; empty means it too. It
	// stays while the benchmark still hands it to keytree.NewStrategy.
	Strategy string
}

// Default returns the paper's default tuning.
func Default() Tuning {
	return Tuning{
		K:                  10,
		Degree:             4,
		InitialRho:         1.0,
		NumNACK:            20,
		MaxNACK:            100,
		MaxMulticastRounds: 2,
		Strategy:           "paper",
	}
}

// Validate checks every knob and returns an error naming the offending
// field, or nil.
func (t Tuning) Validate() error {
	if t.K < 1 || t.K > MaxK {
		return fmt.Errorf("tuning: K = %d, want 1 <= K <= %d", t.K, MaxK)
	}
	if t.Degree < 2 {
		return fmt.Errorf("tuning: Degree = %d, want Degree >= 2", t.Degree)
	}
	if t.InitialRho < 0 {
		return fmt.Errorf("tuning: InitialRho = %g, want InitialRho >= 0", t.InitialRho)
	}
	if t.NumNACK < 0 {
		return fmt.Errorf("tuning: NumNACK = %d, want NumNACK >= 0", t.NumNACK)
	}
	if t.MaxNACK < 0 {
		return fmt.Errorf("tuning: MaxNACK = %d, want MaxNACK >= 0", t.MaxNACK)
	}
	if t.MaxMulticastRounds < 0 {
		return fmt.Errorf("tuning: MaxMulticastRounds = %d, want MaxMulticastRounds >= 0", t.MaxMulticastRounds)
	}
	if t.AdaptNumNACK && t.MaxMulticastRounds == 0 {
		return fmt.Errorf("tuning: AdaptNumNACK needs MaxMulticastRounds > 0, the deadline")
	}
	if t.Strategy != "" && t.Strategy != "paper" {
		return fmt.Errorf("tuning: Strategy = %q, want \"paper\"", t.Strategy)
	}
	return nil
}
