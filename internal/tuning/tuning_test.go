package tuning

import (
	"strings"
	"testing"
)

// TestDefaultsMatchPaper pins the defaults to the paper's operating
// point documented in DESIGN.md: k=10, d=4, rho0=1, numNACK=20 capped
// at 100, switch to unicast after 2 multicast rounds.
func TestDefaultsMatchPaper(t *testing.T) {
	d := Default()
	if d.K != 10 {
		t.Errorf("K = %d, want 10", d.K)
	}
	if d.Degree != 4 {
		t.Errorf("Degree = %d, want 4", d.Degree)
	}
	if d.InitialRho != 1.0 {
		t.Errorf("InitialRho = %g, want 1", d.InitialRho)
	}
	if d.NumNACK != 20 {
		t.Errorf("NumNACK = %d, want 20", d.NumNACK)
	}
	if d.MaxNACK != 100 {
		t.Errorf("MaxNACK = %d, want 100", d.MaxNACK)
	}
	if d.MaxMulticastRounds != 2 {
		t.Errorf("MaxMulticastRounds = %d, want 2", d.MaxMulticastRounds)
	}
	if d.Workers != 0 {
		t.Errorf("Workers = %d, want 0 (GOMAXPROCS)", d.Workers)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("defaults fail validation: %v", err)
	}
}

// TestWithDefaults fills only unset knobs and preserves explicit ones,
// including the legitimately-zero MaxMulticastRounds and Workers.
func TestWithDefaults(t *testing.T) {
	got := Tuning{}.WithDefaults()
	want := Default()
	want.MaxMulticastRounds = 0 // zero means "multicast until done", kept
	if got != want {
		t.Errorf("zero tuning defaulted to %+v, want %+v", got, want)
	}

	explicit := Tuning{K: 32, Degree: 2, InitialRho: 2.5, NumNACK: 5, MaxNACK: 7, MaxMulticastRounds: 3, Workers: 4, Strategy: "paper"}
	if got := explicit.WithDefaults(); got != explicit {
		t.Errorf("explicit tuning mutated: %+v", got)
	}
}

// TestStrategyDefault: the Strategy field defaults to the paper's
// marking algorithm, the only one Validate accepts.
func TestStrategyDefault(t *testing.T) {
	if got := Default().Strategy; got != "paper" {
		t.Errorf("default Strategy = %q, want paper", got)
	}
	if got := (Tuning{}).WithDefaults().Strategy; got != "paper" {
		t.Errorf("zero Strategy defaulted to %q, want paper", got)
	}
}

// TestValidateNamesField: each invalid knob must produce an error whose
// text names the field, so misconfiguration is diagnosable from the
// message alone.
func TestValidateNamesField(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Tuning)
		field string
	}{
		{"K too small", func(t *Tuning) { t.K = 0 }, "K"},
		{"K too large", func(t *Tuning) { t.K = MaxK + 1 }, "K"},
		{"Degree", func(t *Tuning) { t.Degree = 1 }, "Degree"},
		{"InitialRho", func(t *Tuning) { t.InitialRho = -0.1 }, "InitialRho"},
		{"NumNACK", func(t *Tuning) { t.NumNACK = -1 }, "NumNACK"},
		{"MaxNACK", func(t *Tuning) { t.MaxNACK = -1 }, "MaxNACK"},
		{"MaxMulticastRounds", func(t *Tuning) { t.MaxMulticastRounds = -1 }, "MaxMulticastRounds"},
		{"Workers", func(t *Tuning) { t.Workers = -1 }, "Workers"},
		{"Strategy", func(t *Tuning) { t.Strategy = "batchplace" }, "Strategy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tun := Default()
			tc.mut(&tun)
			err := tun.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name field %s", err, tc.field)
			}
		})
	}
}

// TestMaxKWithinCode: k data + k parity shards must fit the RS code.
func TestMaxKWithinCode(t *testing.T) {
	tun := Default()
	tun.K = MaxK
	if err := tun.Validate(); err != nil {
		t.Fatalf("K = MaxK rejected: %v", err)
	}
}
