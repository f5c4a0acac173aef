// Package tuning is the single definition of the rekey protocol's
// tuning knobs. The key server (rekey.Config), the simulation engine
// (protocol.Config) and the UDP transport all embed or read the same
// Tuning struct, so each knob -- FEC block size k, key tree degree d,
// proactivity factor rho, the NACK target, the multicast round budget
// and the encode worker bound -- is defined, defaulted and validated in
// exactly one place. The defaults are the paper's (DESIGN.md): k=10,
// d=4, rho0=1, numNACK=20 (cap 100), switch to unicast after 2
// multicast rounds.
package tuning

import (
	"fmt"
	"runtime"
)

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
	// MaxMulticastRounds is the round count after which the server
	// switches to unicast (the paper suggests 1 or 2). Zero means
	// multicast until every user recovers (simulation only).
	MaxMulticastRounds int
	// Workers bounds the goroutines used for parallel work (FEC encode
	// fan-out, per-user simulation); 0 means GOMAXPROCS. >= 0.
	Workers int
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

// WithDefaults fills zero-valued knobs from Default. Booleans and
// legitimately-zero knobs (MaxMulticastRounds, Workers) are left alone:
// only K, Degree, InitialRho, NumNACK and MaxNACK are defaulted, and
// only when unset.
func (t Tuning) WithDefaults() Tuning {
	d := Default()
	if t.K == 0 {
		t.K = d.K
	}
	if t.Degree == 0 {
		t.Degree = d.Degree
	}
	if t.InitialRho == 0 {
		t.InitialRho = d.InitialRho
	}
	if t.NumNACK == 0 {
		t.NumNACK = d.NumNACK
	}
	if t.MaxNACK == 0 {
		t.MaxNACK = d.MaxNACK
	}
	if t.Strategy == "" {
		t.Strategy = d.Strategy
	}
	return t
}

// ResolveWorkers resolves a Workers knob value to a concrete goroutine
// count: n > 0 is taken as-is, anything else means GOMAXPROCS. Every
// parallel stage (FEC encode fan-out, the batch rekey pipeline) resolves
// its bound through here so "0 = all cores" is defined once.
func ResolveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// EffectiveWorkers resolves the Workers knob (see ResolveWorkers).
func (t Tuning) EffectiveWorkers() int { return ResolveWorkers(t.Workers) }

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
	if t.Workers < 0 {
		return fmt.Errorf("tuning: Workers = %d, want Workers >= 0", t.Workers)
	}
	if t.Strategy != "" && t.Strategy != "paper" {
		return fmt.Errorf("tuning: Strategy = %q, want \"paper\"", t.Strategy)
	}
	return nil
}
